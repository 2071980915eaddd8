//! The enclave pool: keeps N provisioned enclaves resident under a page
//! budget, evicts whole enclaves LRU-wise to their sealed state, and
//! warm-starts them on demand.
//!
//! This is the host-density layer the Stress-SGX regime calls for: a
//! machine packing hundreds of protected enclaves cannot keep them all
//! resident, but tearing one down does not lose its provisioning — the
//! sealed blob written at first restore (step ❼) survives, so bringing
//! the enclave back is a [`ProtectedPackage::warm_start`] plus one sealed
//! fast-path restore, never a new DH+attestation round-trip.
//!
//! Eviction drops the entire runtime: EPC pages, marshal area, VM caches.
//! What survives is exactly the sealed state — the blob in the entry's
//! [`SealedStore`]. Mutable guest data does NOT survive whole-enclave
//! eviction (the pool is for stateless-service enclaves, matching the
//! paper's model where the secret is code, not session data).

use crate::api::{LaunchedApp, Platform, ProtectedPackage};
use crate::delegation::DelegateRegistry;
use crate::error::ElideError;
use crate::protocol::Transport;
use crate::restore::{new_sealed_store, RestoreRoute, SealedStore};
use elide_crypto::rng::SeededRandom;
use elide_enclave::loader::ImagePlan;
use sgx_sim::budget::EpcBudget;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Pool tuning.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum enclaves resident at once (≥ 1).
    pub max_resident: usize,
    /// Per-enclave resident page cap; `None` leaves residents unbounded.
    /// With a cap, every resident runtime gets an armed
    /// [`EpcBudget`], so page-level LRU eviction operates *inside* each
    /// enclave while the pool LRU operates *across* enclaves.
    pub page_cap: Option<usize>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { max_resident: 8, page_cap: None }
    }
}

/// Pool counters, exposed for benches and assertions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served by an already-resident enclave.
    pub hits: u64,
    /// Checkouts served by a warm start (sealed fast-path restore).
    pub warm_starts: u64,
    /// Cold provisions (full attested handshake) at admission.
    pub cold_provisions: u64,
    /// Cold provisions served by a local delegate instead of the origin.
    pub delegated_provisions: u64,
    /// Whole enclaves evicted to sealed state.
    pub enclave_evictions: u64,
}

struct PoolEntry {
    package: ProtectedPackage,
    platform: Arc<Platform>,
    /// Transport to the authentication server — used only by the cold
    /// provision at admission; warm starts run offline.
    transport: Arc<Mutex<dyn Transport + Send>>,
    sealed: SealedStore,
    plan: ImagePlan,
    restore_idx: u64,
    seed: u64,
    /// Launches so far (diversifies per-launch RNG seeds).
    launches: u64,
    resident: Option<LaunchedApp>,
    last_used: u64,
}

impl PoolEntry {
    /// Counts one more launch and returns its RNG seed, distinct per launch.
    fn next_launch_seed(&mut self) -> u64 {
        self.launches += 1;
        self.seed ^ (self.launches << 32)
    }
}

/// Arms a per-enclave [`EpcBudget`] of `page_cap` pages on a freshly
/// launched resident (no-op without a cap).
fn arm_budget(
    page_cap: Option<usize>,
    launch_seed: u64,
    app: &mut LaunchedApp,
) -> Result<(), ElideError> {
    if let Some(cap) = page_cap {
        let mut rng = SeededRandom::new(launch_seed ^ 0xB0D6E7);
        app.runtime.set_epc_budget(EpcBudget::new(cap, &mut rng))?;
    }
    Ok(())
}

/// An LRU pool of provisioned enclaves; see the module docs.
pub struct EnclavePool {
    config: PoolConfig,
    clock: u64,
    entries: HashMap<String, PoolEntry>,
    stats: PoolStats,
    /// Local delegates consulted before the origin on cold provisions.
    delegates: Option<Arc<DelegateRegistry>>,
}

impl std::fmt::Debug for EnclavePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclavePool")
            .field("entries", &self.entries.len())
            .field("resident", &self.resident_count())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl EnclavePool {
    /// Creates a pool; `max_resident` is clamped to ≥ 1.
    pub fn new(config: PoolConfig) -> Self {
        let config = PoolConfig { max_resident: config.max_resident.max(1), ..config };
        EnclavePool {
            config,
            clock: 0,
            entries: HashMap::new(),
            stats: PoolStats::default(),
            delegates: None,
        }
    }

    /// Wires a [`DelegateRegistry`]: cold provisions first look for a
    /// local delegate whose policy covers the admitted enclave and restore
    /// through it — the origin server is only contacted when no delegate
    /// applies or the delegated restore fails (fail-open to the origin,
    /// never fail-open to running unsanitized code).
    #[must_use]
    pub fn with_delegates(mut self, delegates: Arc<DelegateRegistry>) -> Self {
        self.delegates = Some(delegates);
        self
    }

    /// Pool counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Enclaves currently resident.
    pub fn resident_count(&self) -> usize {
        self.entries.values().filter(|e| e.resident.is_some()).count()
    }

    /// Whether `id` has been admitted.
    pub fn contains(&self, id: &str) -> bool {
        self.entries.contains_key(id)
    }

    /// Admits a package under `id` and cold-provisions it: launch, full
    /// attested restore over `transport`, sealed blob written. The enclave
    /// comes out resident (evicting an LRU resident if the pool is full).
    ///
    /// # Errors
    ///
    /// * [`ElideError::Store`] — `id` is already admitted.
    /// * Launch/restore failures from the cold provision; the entry is
    ///   not admitted on failure.
    pub fn admit(
        &mut self,
        id: &str,
        package: ProtectedPackage,
        platform: Arc<Platform>,
        transport: Arc<Mutex<dyn Transport + Send>>,
        restore_idx: u64,
        seed: u64,
    ) -> Result<(), ElideError> {
        if self.entries.contains_key(id) {
            return Err(ElideError::Store(format!("enclave pool: '{id}' already admitted")));
        }
        let plan = package.image_plan()?;
        let sealed = new_sealed_store();
        let mut entry = PoolEntry {
            package,
            platform,
            transport,
            sealed,
            plan,
            restore_idx,
            seed,
            launches: 0,
            resident: None,
            last_used: 0,
        };
        let launch_seed = entry.next_launch_seed();
        let mut app = self.cold_provision(&entry, launch_seed)?;
        arm_budget(self.config.page_cap, launch_seed, &mut app)?;
        entry.resident = Some(app);
        self.make_room(Some(id));
        self.clock += 1;
        entry.last_used = self.clock;
        self.stats.cold_provisions += 1;
        self.entries.insert(id.to_string(), entry);
        Ok(())
    }

    /// Checks out the enclave under `id`, warm-starting it if it was
    /// evicted. Returns the live runtime; the borrow ends the checkout
    /// (there is no pinning — the enclave may be evicted by a later
    /// checkout of a different id).
    ///
    /// # Errors
    ///
    /// * [`ElideError::Store`] — unknown id.
    /// * Warm-start load/restore failures; the entry stays admitted (and
    ///   evicted), so a later checkout can retry.
    pub fn checkout(&mut self, id: &str) -> Result<&mut LaunchedApp, ElideError> {
        if !self.entries.contains_key(id) {
            return Err(ElideError::Store(format!("enclave pool: unknown id '{id}'")));
        }
        self.clock += 1;
        let clock = self.clock;
        if self.entries[id].resident.is_some() {
            self.stats.hits += 1;
        } else {
            self.make_room(Some(id));
            let page_cap = self.config.page_cap;
            let entry = self.entries.get_mut(id).expect("checked above");
            let launch_seed = entry.next_launch_seed();
            let mut app = entry.package.warm_start(
                &entry.plan,
                &entry.platform,
                Arc::clone(&entry.sealed),
                launch_seed,
            )?;
            arm_budget(page_cap, launch_seed, &mut app)?;
            // The sealed fast path needs no server; a restore that tries
            // to reach one fails loudly via the OfflineTransport.
            app.restore(entry.restore_idx)?;
            entry.resident = Some(app);
            self.stats.warm_starts += 1;
        }
        let entry = self.entries.get_mut(id).expect("checked above");
        entry.last_used = clock;
        Ok(entry.resident.as_mut().expect("made resident above"))
    }

    /// Evicts the enclave under `id` to sealed state right now (e.g. for
    /// tests or an explicit memory-pressure signal). No-op if absent or
    /// already evicted.
    pub fn evict(&mut self, id: &str) {
        if let Some(entry) = self.entries.get_mut(id) {
            if entry.resident.take().is_some() {
                self.stats.enclave_evictions += 1;
            }
        }
    }

    /// Cold provision: launch and run the full attested restore, which
    /// writes the sealed blob. With a [`DelegateRegistry`] wired and a
    /// delegate covering this enclave, the restore is served locally and
    /// the origin is never contacted; a failed delegated restore falls
    /// back to the origin on the same runtime.
    fn cold_provision(
        &mut self,
        entry: &PoolEntry,
        launch_seed: u64,
    ) -> Result<LaunchedApp, ElideError> {
        let delegate = self.delegates.as_ref().and_then(|registry| {
            let mrsigner = entry.package.sigstruct.mrsigner().ok()?;
            registry.delegate_for(&entry.package.mrenclave, &mrsigner)
        });
        let route = RestoreRoute {
            origin: Arc::clone(&entry.transport),
            delegate: delegate
                .as_ref()
                .map(|d| Arc::new(Mutex::new(d.connect())) as Arc<Mutex<dyn Transport + Send>>),
        };
        let mut app = entry.package.launch_routed(
            &entry.plan,
            &entry.platform,
            route,
            Arc::clone(&entry.sealed),
            launch_seed,
        )?;
        if let Some(delegate) = delegate {
            let target = delegate.policy().delegate_mrenclave;
            if app.restore_delegated(entry.restore_idx, &target).is_ok() {
                self.stats.delegated_provisions += 1;
                return Ok(app);
            }
            // Delegate rejected or died mid-restore: same runtime, origin
            // route (the switch is disarmed again), full handshake.
        }
        app.restore(entry.restore_idx)?;
        Ok(app)
    }

    /// Evicts LRU residents until there is room for one more (the entry
    /// named by `incoming`, if any, is never a victim).
    fn make_room(&mut self, incoming: Option<&str>) {
        while self.resident_count() >= self.config.max_resident {
            let victim = self
                .entries
                .iter()
                .filter(|(id, e)| e.resident.is_some() && incoming != Some(id.as_str()))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| id.clone());
            let Some(victim) = victim else { break };
            self.evict(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{protect, Mode};
    use crate::elide_asm::ELIDE_ASM;
    use crate::protocol::InProcessTransport;
    use crate::sanitizer::DataPlacement;
    use crate::server::AuthServer;
    use elide_crypto::rng::RandomSource;
    use elide_crypto::rsa::RsaKeyPair;
    use elide_enclave::image::EnclaveImageBuilder;
    use sgx_sim::quote::AttestationService;

    /// A protected package whose one secret ecall returns `answer`, plus
    /// its platform and server.
    fn build(
        answer: u64,
        rng: &mut dyn RandomSource,
    ) -> (ProtectedPackage, Arc<Platform>, Arc<AuthServer>) {
        let mut b = EnclaveImageBuilder::new();
        b.source(ELIDE_ASM)
            .source(&format!(
                ".section text\n.global get_answer\n.func get_answer\n    movi r0, {answer}\n    ret\n.endfunc\n"
            ))
            .ecall("get_answer")
            .ecall("elide_restore");
        let image = b.build().unwrap();
        let vendor = RsaKeyPair::generate(512, rng);
        let package =
            protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, rng).unwrap();
        let mut ias = AttestationService::new();
        let platform = Arc::new(Platform::provision(rng, &mut ias));
        let server = Arc::new(package.make_server(ias));
        (package, platform, server)
    }

    fn admit(pool: &mut EnclavePool, id: &str, answer: u64, seed: u64) -> Arc<AuthServer> {
        let mut rng = SeededRandom::new(seed);
        let (package, platform, server) = build(answer, &mut rng);
        let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
        pool.admit(id, package, platform, transport, 1, seed).unwrap();
        server
    }

    #[test]
    fn pool_keeps_n_resident_and_warm_starts_the_rest() {
        let mut pool = EnclavePool::new(PoolConfig { max_resident: 2, page_cap: None });
        let servers: Vec<_> =
            (0..3).map(|i| admit(&mut pool, &format!("app{i}"), 100 + i, 50 + i)).collect();
        // Admitting 3 into a 2-slot pool already evicted one.
        assert_eq!(pool.resident_count(), 2);
        assert_eq!(pool.stats().cold_provisions, 3);
        assert_eq!(pool.stats().enclave_evictions, 1);
        let handshakes: Vec<_> = servers.iter().map(|s| s.handshakes()).collect();

        // Every app answers correctly regardless of residency, cycling
        // through warm starts; the servers see no further handshakes.
        for round in 0..3 {
            for i in 0..3u64 {
                let app = pool.checkout(&format!("app{i}")).unwrap();
                let r = app.runtime.ecall(0, &[], 0).unwrap();
                assert_eq!(r.status, 100 + i, "round {round} app{i}");
            }
        }
        assert_eq!(pool.resident_count(), 2);
        assert!(pool.stats().warm_starts > 0, "cycling 3 apps through 2 slots must warm-start");
        // A back-to-back checkout of a resident enclave is a hit.
        let before = pool.stats().hits;
        pool.checkout("app2").unwrap();
        assert_eq!(pool.stats().hits, before + 1);
        for (s, before) in servers.iter().zip(handshakes) {
            assert_eq!(s.handshakes(), before, "warm starts must not contact the server");
        }
    }

    #[test]
    fn lru_victim_is_the_coldest_enclave() {
        let mut pool = EnclavePool::new(PoolConfig { max_resident: 2, page_cap: None });
        admit(&mut pool, "a", 1, 60);
        admit(&mut pool, "b", 2, 61);
        pool.checkout("a").unwrap(); // b is now LRU
        admit(&mut pool, "c", 3, 62);
        assert!(pool.entries["a"].resident.is_some(), "recently used survives");
        assert!(pool.entries["b"].resident.is_none(), "LRU evicted");
        assert!(pool.entries["c"].resident.is_some());
    }

    #[test]
    fn page_budget_applies_to_pool_residents() {
        let mut pool = EnclavePool::new(PoolConfig { max_resident: 1, page_cap: Some(6) });
        admit(&mut pool, "a", 9, 70);
        let app = pool.checkout("a").unwrap();
        assert_eq!(app.runtime.ecall(0, &[], 0).unwrap().status, 9);
        assert!(app.runtime.enclave().resident_reg_pages() <= 6);
        let stats = app.runtime.epc_budget().unwrap().stats();
        assert!(stats.evictions > 0, "a 6-page cap must page: {stats:?}");
        assert_eq!(stats.reload_failures, 0);
    }

    #[test]
    fn unknown_and_duplicate_ids_are_typed_errors() {
        let mut pool = EnclavePool::new(PoolConfig::default());
        assert!(matches!(pool.checkout("nope"), Err(ElideError::Store(_))));
        let server = admit(&mut pool, "a", 1, 80);
        let mut rng = SeededRandom::new(81);
        let (package, platform, _server2) = build(2, &mut rng);
        let transport = Arc::new(Mutex::new(InProcessTransport::new(server)));
        let err = pool.admit("a", package, platform, transport, 1, 81).unwrap_err();
        assert!(matches!(err, ElideError::Store(_)));
    }

    #[test]
    fn explicit_evict_then_checkout_warm_starts() {
        let mut pool = EnclavePool::new(PoolConfig { max_resident: 4, page_cap: None });
        admit(&mut pool, "a", 5, 90);
        pool.evict("a");
        assert_eq!(pool.resident_count(), 0);
        let app = pool.checkout("a").unwrap();
        assert_eq!(app.runtime.ecall(0, &[], 0).unwrap().status, 5);
        assert_eq!(pool.stats().warm_starts, 1);
    }
}
