//! Bounded-EPC budget: caps the number of resident regular pages per
//! enclave and pages the excess out with `EWB`/`ELDU` ([`crate::paging`]).
//!
//! Real EPCs are small (the paper-era parts expose ~93 MiB usable), so a
//! host packing hundreds of enclaves oversubscribes it and the kernel
//! pages enclave memory like any other. This module models that regime:
//! [`EpcBudget::enforce`] evicts least-recently-used victims (ordered by
//! the access stamps [`Enclave`] maintains on every load, store and
//! execute entry while a budget is armed) until the enclave fits its cap,
//! and
//! [`EpcBudget::page_in`] transparently reloads an evicted page on the
//! next touch. Sealed blobs stay versioned, so a rollback of an evicted
//! page is detected exactly as in explicit paging.
//!
//! For chaos testing, [`EpcBudget::set_tamper`] arms a seeded injector
//! that corrupts a fraction of eviction blobs in flight — the reload path
//! must then surface the typed paging errors instead of loading bad bytes.

use crate::enclave::Enclave;
use crate::epc::{EpcPage, PageType, PAGE_SIZE};
use crate::error::SgxError;
use crate::faults::EpcFaultInjector;
use crate::paging::{EvictedPage, PagingManager};
use elide_crypto::rng::{RandomSource, SeededRandom};
use std::collections::HashMap;

/// Eviction/reload counters, exposed for benches and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EpcBudgetStats {
    /// Pages evicted under budget pressure (clean drops + EWBs).
    pub evictions: u64,
    /// Clean evictions: the page matched its backing snapshot (never
    /// written since capture), so it was dropped without sealing.
    pub clean_drops: u64,
    /// Pages transparently brought back on touch (ELDU of a sealed blob
    /// or a plain copy from the backing snapshot).
    pub reloads: u64,
    /// Reload attempts rejected by the integrity/freshness checks
    /// (only non-zero with tampering armed).
    pub reload_failures: u64,
    /// Eviction blobs corrupted by the armed tamperer — how much chaos
    /// actually fired, for vacuity checks in the chaos suite.
    pub tampers: u64,
}

/// Seeded blob-tampering hook for eviction-triggered EWB/ELDU cycles.
struct Tamper {
    injector: EpcFaultInjector,
    dice: SeededRandom,
    /// Probability of corrupting each eviction blob, in parts per million.
    ppm: u32,
}

/// A per-enclave resident-page cap with LRU eviction.
///
/// The budget owns the [`PagingManager`] (version array + paging key) and
/// the untrusted store of evicted blobs, mirroring how an OS enclave
/// driver keeps swapped pages plus VA slots on behalf of the enclave.
pub struct EpcBudget {
    cap: usize,
    pager: PagingManager,
    evicted: HashMap<u64, EvictedPage>,
    /// Clean-page backing snapshots: page contents + the generation stamp
    /// at capture time. A victim whose current generation still matches
    /// was never written since capture, so it can be dropped without EWB
    /// sealing and re-sourced by plain copy — the dominant case right
    /// after a (warm) launch, when every page is pristine image content.
    /// Lives in the same trust class as the pager's version array: PRM-
    /// resident paging metadata the enclave driver maintains.
    backing: HashMap<u64, (EpcPage, u64)>,
    rng: SeededRandom,
    tamper: Option<Tamper>,
    stats: EpcBudgetStats,
}

impl std::fmt::Debug for EpcBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpcBudget")
            .field("cap", &self.cap)
            .field("evicted", &self.evicted.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl EpcBudget {
    /// Creates a budget allowing at most `cap_pages` resident regular
    /// pages (clamped to ≥ 1 — a zero cap could never run anything).
    pub fn new(cap_pages: usize, rng: &mut dyn RandomSource) -> Self {
        let mut seed = [0u8; 8];
        rng.fill(&mut seed);
        EpcBudget {
            cap: cap_pages.max(1),
            pager: PagingManager::new(rng),
            evicted: HashMap::new(),
            backing: HashMap::new(),
            rng: SeededRandom::new(u64::from_le_bytes(seed)),
            tamper: None,
            stats: EpcBudgetStats::default(),
        }
    }

    /// The resident-page cap.
    pub fn cap_pages(&self) -> usize {
        self.cap
    }

    /// Eviction/reload counters so far.
    pub fn stats(&self) -> EpcBudgetStats {
        self.stats
    }

    /// Number of pages currently evicted to sealed blobs.
    pub fn evicted_pages(&self) -> usize {
        self.evicted.len()
    }

    /// Whether the page at `page_off` is held evicted by this budget.
    pub fn has_evicted(&self, page_off: u64) -> bool {
        self.evicted.contains_key(&page_off)
    }

    /// Arms seeded blob tampering: each future eviction blob is corrupted
    /// with probability `ppm` parts-per-million, drawing uniformly from
    /// every [`crate::faults::EwbTamper`] variant. Chaos-test hook; off
    /// by default.
    pub fn set_tamper(&mut self, seed: u64, ppm: u32) {
        self.tamper = Some(Tamper {
            injector: EpcFaultInjector::new(seed),
            dice: SeededRandom::new(seed ^ 0x9E37_79B9_7F4A_7C15),
            ppm,
        });
    }

    /// Snapshots every resident regular page as clean backing. Evictions
    /// of pages never written after this capture skip EWB sealing (a
    /// clean drop), and their reloads are plain copies instead of ELDU
    /// decrypts. Call right after (warm-)launch, when the whole resident
    /// set is pristine image content; re-capturing later refreshes the
    /// snapshots to the pages' current contents.
    pub fn capture_backing(&mut self, enclave: &Enclave) {
        for page_off in enclave.resident_pages() {
            if let Some((page, gen)) = enclave.page_snapshot(page_off) {
                if page.ptype == PageType::Reg {
                    self.backing.insert(page_off, (page, gen));
                }
            }
        }
    }

    /// Arms this budget on `enclave`: captures the clean backing, turns on
    /// the enclave's per-access LRU stamping, and enforces the cap.
    /// Returns the number of pages evicted. Accesses made before arming
    /// left no stamps, so this first enforcement orders pages by their
    /// `EADD` and reload stamps alone.
    ///
    /// # Errors
    ///
    /// Propagates paging errors from the enforcement, leaving the
    /// enclave's stamping as it was before the call.
    pub fn arm(&mut self, enclave: &mut Enclave) -> Result<usize, SgxError> {
        self.capture_backing(enclave);
        let was_stamping = enclave.stamps_accesses();
        enclave.set_access_stamping(true);
        let evicted = self.enforce(enclave);
        if evicted.is_err() {
            enclave.set_access_stamping(was_stamping);
        }
        evicted
    }

    /// Disarms this budget from `enclave`: guest accesses stop stamping
    /// pages. The budget keeps its evicted blobs.
    pub fn disarm(&self, enclave: &mut Enclave) {
        enclave.set_access_stamping(false);
    }

    /// Evicts one victim: a clean drop if its backing snapshot is still
    /// current, a (possibly tampered) EWB otherwise.
    fn evict_one(&mut self, enclave: &mut Enclave, victim: u64) -> Result<(), SgxError> {
        let clean = self
            .backing
            .get(&victim)
            .is_some_and(|(_, gen)| enclave.page_generation(enclave.base() + victim) == Some(*gen));
        if clean {
            enclave.page_evict(victim);
            self.stats.clean_drops += 1;
        } else {
            let mut blob = self.pager.ewb(enclave, victim, &mut self.rng)?;
            if let Some(t) = &mut self.tamper {
                if t.dice.next_u64() % 1_000_000 < u64::from(t.ppm) {
                    t.injector.tamper_evicted_random(&mut blob);
                    self.stats.tampers += 1;
                }
            }
            self.evicted.insert(victim, blob);
        }
        self.stats.evictions += 1;
        Ok(())
    }

    /// Evicts LRU victims until the enclave's resident regular pages fit
    /// the cap. Returns the number of pages evicted. Transparent to the
    /// guest: the next touch of an evicted page reloads it via
    /// [`EpcBudget::page_in`].
    ///
    /// # Errors
    ///
    /// Propagates paging errors (e.g. a victim vanishing mid-eviction);
    /// the budget's own bookkeeping stays consistent on failure.
    pub fn enforce(&mut self, enclave: &mut Enclave) -> Result<usize, SgxError> {
        let mut out = 0;
        while enclave.resident_reg_pages() > self.cap {
            let Some(victim) = enclave.coldest_resident_page() else { break };
            self.evict_one(enclave, victim)?;
            out += 1;
        }
        Ok(out)
    }

    /// Reloads the evicted page containing `vaddr`, if this budget holds
    /// it, then re-enforces the cap (the fresh access stamp from the
    /// reload protects the just-loaded page from immediate re-eviction).
    /// Returns `Ok(false)` when the address is not an evicted page — the
    /// caller's fault is genuine and should surface as usual.
    ///
    /// # Errors
    ///
    /// * [`SgxError::SealAuthFailed`] / [`SgxError::ReplayDetected`] /
    ///   [`SgxError::OutOfRange`] — the stored blob failed the integrity
    ///   or freshness checks (tampering). The blob stays held so the
    ///   failure is deterministic, and `reload_failures` is counted.
    pub fn page_in(&mut self, enclave: &mut Enclave, vaddr: u64) -> Result<bool, SgxError> {
        let Some(off) = vaddr.checked_sub(enclave.base()) else { return Ok(false) };
        if off >= enclave.size() {
            return Ok(false);
        }
        let page_off = off & !(PAGE_SIZE - 1);
        if let Some(blob) = self.evicted.get(&page_off) {
            return match self.pager.eldu(enclave, blob) {
                Ok(()) => {
                    self.evicted.remove(&page_off);
                    self.stats.reloads += 1;
                    self.enforce(enclave)?;
                    Ok(true)
                }
                Err(e) => {
                    self.stats.reload_failures += 1;
                    Err(e)
                }
            };
        }
        // Clean-dropped page: re-source from the backing snapshot, then
        // refresh the snapshot's generation to the restored page's so it
        // stays clean for the next eviction round.
        if enclave.page_generation(vaddr).is_none() {
            if let Some((page, _)) = self.backing.get(&page_off) {
                let page = page.clone();
                enclave.page_restore(page_off, page)?;
                let gen = enclave
                    .page_generation(enclave.base() + page_off)
                    .expect("page resident right after restore");
                self.backing.get_mut(&page_off).expect("checked above").1 = gen;
                self.stats.reloads += 1;
                self.enforce(enclave)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Evicts **every** resident regular page — the whole-enclave
    /// suspend used when the pool manager puts an enclave to sealed
    /// sleep. Returns the number of pages evicted.
    ///
    /// # Errors
    ///
    /// Propagates paging errors; already-evicted pages keep their blobs.
    pub fn evict_all(&mut self, enclave: &mut Enclave) -> Result<usize, SgxError> {
        let mut out = 0;
        while let Some(victim) = enclave.coldest_resident_page() {
            self.evict_one(enclave, victim)?;
            out += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::{AccessKind, SgxCpu};
    use crate::epc::{PagePerms, PageType};
    use crate::sigstruct::SigStruct;
    use elide_crypto::rng::SeededRandom;
    use elide_crypto::rsa::RsaKeyPair;

    const BASE: u64 = 0x100000;

    /// Enclave with `n` RW data pages, initialized.
    fn setup(n: usize) -> (Enclave, SeededRandom) {
        let mut rng = SeededRandom::new(99);
        let cpu = SgxCpu::new(&mut rng);
        let mut e = cpu.ecreate(BASE, n as u64 * PAGE_SIZE).unwrap();
        for i in 0..n {
            let addr = BASE + i as u64 * PAGE_SIZE;
            e.eadd(addr, &[i as u8; 4096], PagePerms::RW, PageType::Reg).unwrap();
            for c in 0..16 {
                e.eextend(addr + c * 256).unwrap();
            }
        }
        let kp = RsaKeyPair::generate(512, &mut SeededRandom::new(5));
        let sig = SigStruct::sign(&kp, e.current_measurement().unwrap(), 1, 1).unwrap();
        e.einit(&sig).unwrap();
        (e, rng)
    }

    #[test]
    fn enforce_respects_cap_and_counts() {
        let (mut e, mut rng) = setup(8);
        let mut b = EpcBudget::new(3, &mut rng);
        let evicted = b.enforce(&mut e).unwrap();
        assert_eq!(evicted, 5);
        assert_eq!(e.resident_reg_pages(), 3);
        assert_eq!(b.evicted_pages(), 5);
        assert_eq!(b.stats().evictions, 5);
        // Idempotent at the cap.
        assert_eq!(b.enforce(&mut e).unwrap(), 0);
    }

    #[test]
    fn lru_victim_ordering() {
        let (mut e, mut rng) = setup(4);
        // Unstamped accesses leave the EADD order: page 0 is coldest.
        e.load_prim(BASE, 1).unwrap();
        assert_eq!(e.coldest_resident_page(), Some(0));
        // With stamping on (as an armed budget sets it), touching pages
        // 0, 2 and 3 leaves page 1 coldest.
        e.set_access_stamping(true);
        e.load_prim(BASE, 1).unwrap();
        e.store_prim(BASE + 2 * PAGE_SIZE, 1, 9).unwrap();
        e.load_prim(BASE + 3 * PAGE_SIZE, 1).unwrap();
        let mut b = EpcBudget::new(3, &mut rng);
        b.enforce(&mut e).unwrap();
        assert!(b.has_evicted(PAGE_SIZE), "coldest page (1) must be the victim");
        assert_eq!(e.resident_reg_pages(), 3);
    }

    #[test]
    fn arming_turns_stamping_on_and_disarming_off() {
        let (mut e, mut rng) = setup(4);
        assert!(!e.stamps_accesses());
        let mut b = EpcBudget::new(4, &mut rng);
        assert_eq!(b.arm(&mut e).unwrap(), 0);
        assert!(e.stamps_accesses());
        b.disarm(&mut e);
        assert!(!e.stamps_accesses());
    }

    #[test]
    fn transparent_reload_on_touch() {
        let (mut e, mut rng) = setup(4);
        for i in 1..4u64 {
            e.load_prim(BASE + i * PAGE_SIZE, 1).unwrap();
        }
        let mut b = EpcBudget::new(2, &mut rng);
        b.enforce(&mut e).unwrap();
        // Page 0 evicted: direct access faults…
        assert!(e.load_prim(BASE, 1).is_none());
        // …but page_in restores the exact bytes, and the cap holds by
        // evicting someone else.
        assert!(b.page_in(&mut e, BASE + 17).unwrap());
        assert_eq!(e.read(BASE, 2, AccessKind::Read).unwrap(), vec![0, 0]);
        assert_eq!(e.resident_reg_pages(), 2);
        assert_eq!(b.stats().reloads, 1);
        // A non-evicted genuine fault is not the budget's.
        assert!(!b.page_in(&mut e, BASE + 100 * PAGE_SIZE).unwrap());
    }

    #[test]
    fn reload_keeps_lru_page_warm() {
        let (mut e, mut rng) = setup(3);
        let mut b = EpcBudget::new(1, &mut rng);
        b.enforce(&mut e).unwrap();
        // Ping-pong across all three pages: each reload evicts the then-
        // coldest page, never the one just brought in.
        for i in 0..12u64 {
            let addr = BASE + (i % 3) * PAGE_SIZE;
            if e.load_prim(addr, 1).is_none() {
                assert!(b.page_in(&mut e, addr).unwrap());
                assert!(e.load_prim(addr, 1).is_some(), "page resident after page_in");
            }
        }
        assert_eq!(e.resident_reg_pages(), 1);
    }

    #[test]
    fn evict_all_then_reload_everything() {
        let (mut e, mut rng) = setup(5);
        let mut b = EpcBudget::new(64, &mut rng);
        assert_eq!(b.evict_all(&mut e).unwrap(), 5);
        assert_eq!(e.resident_reg_pages(), 0);
        for i in 0..5u64 {
            assert!(b.page_in(&mut e, BASE + i * PAGE_SIZE).unwrap());
            assert_eq!(e.read(BASE + i * PAGE_SIZE, 1, AccessKind::Read).unwrap(), vec![i as u8]);
        }
        assert_eq!(b.evicted_pages(), 0);
    }

    #[test]
    fn clean_pages_drop_without_sealing_and_dirty_pages_ewb() {
        let (mut e, mut rng) = setup(4);
        let mut b = EpcBudget::new(2, &mut rng);
        b.capture_backing(&e);
        // Dirty page 3 (most recently used, stays resident); 0 and 1 are
        // clean victims — dropped, not sealed.
        e.store_prim(BASE + 3 * PAGE_SIZE, 1, 0xAB).unwrap();
        b.enforce(&mut e).unwrap();
        assert_eq!(b.stats().evictions, 2);
        assert_eq!(b.stats().clean_drops, 2);
        assert_eq!(b.evicted_pages(), 0, "clean drops must not hold sealed blobs");
        // Reload of a clean drop is a plain copy with the original bytes.
        assert!(b.page_in(&mut e, BASE).unwrap());
        assert_eq!(e.read(BASE, 1, AccessKind::Read).unwrap(), vec![0]);
        // The restored page is still clean: evicting it again stays free.
        let drops = b.stats().clean_drops;
        b.enforce(&mut e).unwrap();
        assert!(b.stats().clean_drops > drops - 1);
        // Now dirty the restored page's successor cycle: write page 3 out
        // by making it coldest. Writes make a page a sealing (EWB) victim.
        e.store_prim(BASE, 1, 1).unwrap(); // page 0 now dirty and warm
        e.load_prim(BASE + PAGE_SIZE, 1); // miss (evicted) — ignore
        b.page_in(&mut e, BASE + PAGE_SIZE).unwrap();
        assert!(b.evicted_pages() > 0 || b.stats().clean_drops > drops, "eviction happened");
    }

    #[test]
    fn written_page_is_sealed_not_dropped() {
        let (mut e, mut rng) = setup(3);
        let mut b = EpcBudget::new(1, &mut rng);
        b.capture_backing(&e);
        // Write page 0, then make it the eviction victim by touching 1, 2.
        e.store_prim(BASE, 1, 0xEE).unwrap();
        e.load_prim(BASE + PAGE_SIZE, 1).unwrap();
        e.load_prim(BASE + 2 * PAGE_SIZE, 1).unwrap();
        b.enforce(&mut e).unwrap();
        assert!(b.has_evicted(0), "dirty page must be EWB-sealed");
        // Its reload is an ELDU that brings back the written byte.
        assert!(b.page_in(&mut e, BASE).unwrap());
        assert_eq!(e.read(BASE, 1, AccessKind::Read).unwrap(), vec![0xEE]);
    }

    #[test]
    fn tampered_eviction_cycle_surfaces_typed_error() {
        let (mut e, mut rng) = setup(4);
        let mut b = EpcBudget::new(1, &mut rng);
        b.set_tamper(1234, 1_000_000); // corrupt every blob
        b.enforce(&mut e).unwrap();
        let mut failures = 0;
        for page in 0..4u64 {
            if b.has_evicted(page * PAGE_SIZE) {
                match b.page_in(&mut e, BASE + page * PAGE_SIZE) {
                    Err(
                        SgxError::SealAuthFailed
                        | SgxError::ReplayDetected
                        | SgxError::OutOfRange { .. },
                    ) => failures += 1,
                    Err(other) => panic!("unexpected error {other:?}"),
                    Ok(_) => {}
                }
            }
        }
        assert!(failures > 0, "100% tamper rate must produce typed failures");
        assert_eq!(b.stats().reload_failures, failures);
        assert_eq!(
            b.stats().tampers,
            b.stats().evictions,
            "every EWB blob must have been tampered at 100% ppm"
        );
    }
}
