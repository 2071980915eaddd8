//! EPC paging (`EWB`/`ELDU`): eviction of enclave pages to untrusted memory
//! with confidentiality, integrity, and rollback protection via a version
//! array — the mechanism that lets the (small) EPC back large enclaves.
//!
//! This is an extension beyond the paper's direct needs, but it completes
//! the substrate: a production enclave host pages, and the security
//! argument of SgxElide (restored secrets never leave the EPC in plaintext)
//! only holds if eviction re-encrypts them, which this module demonstrates.

use crate::enclave::Enclave;
use crate::epc::{EpcPage, PagePerms, PageType, PAGE_SIZE};
use crate::error::SgxError;
use elide_crypto::gcm::AesGcm;
use elide_crypto::kdf::derive_key_128;
use elide_crypto::rng::RandomSource;
use std::collections::HashMap;

/// An evicted page living in untrusted memory.
#[derive(Debug, Clone)]
pub struct EvictedPage {
    /// Page offset within the enclave.
    pub page_offset: u64,
    /// AES-GCM nonce.
    pub iv: [u8; 12],
    /// Ciphertext of the page contents.
    pub ciphertext: Vec<u8>,
    /// Authentication tag (covers offset, perms, type, version).
    pub tag: [u8; 16],
    /// Page permissions (authenticated, restored on reload).
    pub perms: u8,
    /// Page type (authenticated).
    pub ptype: u8,
    /// Version number for rollback protection.
    pub version: u64,
}

/// The paging manager: holds the version array (which on real hardware
/// lives in VA pages inside the EPC) and the paging key.
pub struct PagingManager {
    key: [u8; 16],
    /// The paging key's cipher, built on first use: its GHASH tables take
    /// longer to build than sealing a page, so no EWB/ELDU rebuilds them.
    gcm: Option<AesGcm>,
    versions: HashMap<u64, u64>,
    counter: u64,
}

impl std::fmt::Debug for PagingManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagingManager")
            .field("evicted", &self.versions.len())
            .finish_non_exhaustive()
    }
}

impl PagingManager {
    /// Creates a paging manager for one enclave, deriving the paging key
    /// from random per-instance material.
    pub fn new(rng: &mut dyn RandomSource) -> Self {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        PagingManager {
            key: derive_key_128(&seed, "ewb-paging", b""),
            gcm: None,
            versions: HashMap::new(),
            counter: 0,
        }
    }

    fn gcm(&mut self) -> &AesGcm {
        let key = &self.key;
        self.gcm.get_or_insert_with(|| AesGcm::new(key).expect("16-byte key"))
    }

    fn aad(page_offset: u64, perms: u8, ptype: u8, version: u64) -> Vec<u8> {
        let mut a = Vec::with_capacity(8 + 2 + 8);
        a.extend_from_slice(&page_offset.to_le_bytes());
        a.push(perms);
        a.push(ptype);
        a.extend_from_slice(&version.to_le_bytes());
        a
    }

    /// `EWB`: evicts the page at `page_offset`, removing it from the EPC.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::PageNotPresent`] if the page is not resident.
    pub fn ewb(
        &mut self,
        enclave: &mut Enclave,
        page_offset: u64,
        rng: &mut dyn RandomSource,
    ) -> Result<EvictedPage, SgxError> {
        let page = enclave
            .page_evict(page_offset)
            .ok_or(SgxError::PageNotPresent { addr: page_offset })?;
        self.counter += 1;
        let version = self.counter;
        self.versions.insert(page_offset, version);
        let mut iv = [0u8; 12];
        rng.fill(&mut iv);
        let perms = page.perms.bits();
        let ptype = page.ptype as u8;
        let aad = Self::aad(page_offset, perms, ptype, version);
        let (ciphertext, tag) = self.gcm().seal(&iv, &aad, &page.data[..]);
        Ok(EvictedPage { page_offset, iv, ciphertext, tag, perms, ptype, version })
    }

    /// `ELDU`: reloads an evicted page into the EPC, verifying integrity
    /// and freshness. On any failure the version array keeps its entry, so
    /// the genuine blob for this offset still loads afterwards — a
    /// tampered blob must not burn the slot.
    ///
    /// # Errors
    ///
    /// * [`SgxError::ReplayDetected`] — the version does not match the
    ///   version array (stale or replayed blob).
    /// * [`SgxError::SealAuthFailed`] — ciphertext or metadata tampered,
    ///   or the ciphertext does not decrypt to a whole page.
    /// * [`SgxError::OutOfRange`] — the blob's page offset falls outside
    ///   the enclave.
    pub fn eldu(&mut self, enclave: &mut Enclave, evicted: &EvictedPage) -> Result<(), SgxError> {
        match self.versions.get(&evicted.page_offset) {
            Some(&v) if v == evicted.version => {}
            _ => return Err(SgxError::ReplayDetected),
        }
        let aad = Self::aad(evicted.page_offset, evicted.perms, evicted.ptype, evicted.version);
        let plain = self
            .gcm()
            .open(&evicted.iv, &aad, &evicted.ciphertext, &evicted.tag)
            .map_err(|_| SgxError::SealAuthFailed)?;
        if plain.len() != PAGE_SIZE as usize {
            return Err(SgxError::SealAuthFailed);
        }
        let ptype = match evicted.ptype {
            0 => PageType::Secs,
            1 => PageType::Tcs,
            _ => PageType::Reg,
        };
        let mut data = Box::new([0u8; PAGE_SIZE as usize]);
        data.copy_from_slice(&plain);
        enclave.page_restore(
            evicted.page_offset,
            EpcPage::new(data, PagePerms::from_bits(evicted.perms), ptype),
        )?;
        self.versions.remove(&evicted.page_offset);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::{AccessKind, SgxCpu};
    use crate::sigstruct::SigStruct;
    use elide_crypto::rng::SeededRandom;
    use elide_crypto::rsa::RsaKeyPair;

    fn setup() -> (Enclave, PagingManager, SeededRandom) {
        let mut rng = SeededRandom::new(77);
        let cpu = SgxCpu::new(&mut rng);
        let mut e = cpu.ecreate(0x100000, 0x10000).unwrap();
        e.eadd(0x100000, &[0xAA; 4096], PagePerms::RW, PageType::Reg).unwrap();
        e.eadd(0x101000, &[0xBB; 4096], PagePerms::RX, PageType::Reg).unwrap();
        for page in [0x100000u64, 0x101000] {
            for i in 0..16 {
                e.eextend(page + i * 256).unwrap();
            }
        }
        let kp = RsaKeyPair::generate(512, &mut SeededRandom::new(4));
        let sig = SigStruct::sign(&kp, e.current_measurement().unwrap(), 1, 1).unwrap();
        e.einit(&sig).unwrap();
        let pm = PagingManager::new(&mut rng);
        (e, pm, rng)
    }

    #[test]
    fn evict_and_reload_roundtrip() {
        let (mut e, mut pm, mut rng) = setup();
        let blob = pm.ewb(&mut e, 0, &mut rng).unwrap();
        // Page gone: access faults.
        assert!(matches!(
            e.read(0x100000, 1, AccessKind::Read),
            Err(SgxError::PageNotPresent { .. })
        ));
        // Ciphertext is not the plaintext.
        assert_ne!(&blob.ciphertext[..16], &[0xAA; 16]);
        pm.eldu(&mut e, &blob).unwrap();
        assert_eq!(e.read(0x100000, 2, AccessKind::Read).unwrap(), vec![0xAA, 0xAA]);
        // Permissions restored.
        assert!(e.page_perms(0x100000).unwrap().writable());
    }

    #[test]
    fn tampered_blob_rejected() {
        let (mut e, mut pm, mut rng) = setup();
        let mut blob = pm.ewb(&mut e, 0, &mut rng).unwrap();
        blob.ciphertext[0] ^= 1;
        assert_eq!(pm.eldu(&mut e, &blob), Err(SgxError::SealAuthFailed));
    }

    #[test]
    fn perms_escalation_rejected() {
        // An attacker flips the W bit on an evicted RX page.
        let (mut e, mut pm, mut rng) = setup();
        let mut blob = pm.ewb(&mut e, 0x1000, &mut rng).unwrap();
        blob.perms |= 2;
        assert_eq!(pm.eldu(&mut e, &blob), Err(SgxError::SealAuthFailed));
    }

    #[test]
    fn replay_rejected() {
        let (mut e, mut pm, mut rng) = setup();
        let blob1 = pm.ewb(&mut e, 0, &mut rng).unwrap();
        pm.eldu(&mut e, &blob1).unwrap();
        // Evict again → new version; the old blob must no longer load.
        let _blob2 = pm.ewb(&mut e, 0, &mut rng).unwrap();
        assert_eq!(pm.eldu(&mut e, &blob1), Err(SgxError::ReplayDetected));
    }

    #[test]
    fn double_load_rejected() {
        let (mut e, mut pm, mut rng) = setup();
        let blob = pm.ewb(&mut e, 0, &mut rng).unwrap();
        pm.eldu(&mut e, &blob).unwrap();
        assert_eq!(pm.eldu(&mut e, &blob), Err(SgxError::ReplayDetected));
    }

    #[test]
    fn evict_absent_page_rejected() {
        let (mut e, mut pm, mut rng) = setup();
        assert!(matches!(pm.ewb(&mut e, 0x5000, &mut rng), Err(SgxError::PageNotPresent { .. })));
    }

    #[test]
    fn truncated_blob_rejected() {
        let (mut e, mut pm, mut rng) = setup();
        let blob = pm.ewb(&mut e, 0, &mut rng).unwrap();
        for keep in [0usize, 1, 2048, 4095] {
            let mut short = blob.clone();
            short.ciphertext.truncate(keep);
            assert_eq!(pm.eldu(&mut e, &short), Err(SgxError::SealAuthFailed), "keep={keep}");
        }
    }

    #[test]
    fn failed_eldu_leaves_page_table_untouched() {
        // Regression: a GCM tag failure on ELDU must not consume the
        // version slot or resurrect the page — and the genuine blob must
        // still load afterwards.
        let (mut e, mut pm, mut rng) = setup();
        let resident_before_evict = e.resident_pages();
        let blob = pm.ewb(&mut e, 0, &mut rng).unwrap();
        let resident = e.resident_pages();

        let mut tampered = blob.clone();
        tampered.tag[0] ^= 1;
        assert_eq!(pm.eldu(&mut e, &tampered), Err(SgxError::SealAuthFailed));
        // Still evicted: same resident set, reads still fault.
        assert_eq!(e.resident_pages(), resident);
        assert!(matches!(
            e.read(0x100000, 1, AccessKind::Read),
            Err(SgxError::PageNotPresent { .. })
        ));

        // The genuine blob still loads — the failed attempt did not burn
        // the version entry.
        pm.eldu(&mut e, &blob).unwrap();
        assert_eq!(e.resident_pages(), resident_before_evict);
        assert_eq!(e.read(0x100000, 2, AccessKind::Read).unwrap(), vec![0xAA, 0xAA]);
    }

    #[test]
    fn seeded_tampering_sweep_never_panics_or_loads() {
        // Every EwbTamper variant under several seeds: ELDU must reject
        // each with a typed error and keep the honest blob loadable.
        use crate::faults::{EpcFaultInjector, EwbTamper};
        for seed in 0..8u64 {
            let (mut e, mut pm, mut rng) = setup();
            // The RX page: permission escalation must actually change bits.
            let blob = pm.ewb(&mut e, 0x1000, &mut rng).unwrap();
            let mut inj = EpcFaultInjector::new(seed);
            for how in EwbTamper::ALL {
                let mut t = blob.clone();
                inj.tamper_evicted(&mut t, how);
                let err = pm.eldu(&mut e, &t).expect_err("tampered blob must not load");
                assert!(
                    matches!(
                        err,
                        SgxError::SealAuthFailed
                            | SgxError::ReplayDetected
                            | SgxError::OutOfRange { .. }
                    ),
                    "{how:?} → unexpected error {err:?}"
                );
            }
            pm.eldu(&mut e, &blob).unwrap();
            assert_eq!(e.read(0x101000, 1, AccessKind::Read).unwrap(), vec![0xBB]);
        }
    }
}
