//! The simulated processor and enclave life cycle: `ECREATE` → `EADD` /
//! `EEXTEND` → `EINIT` → enclave-mode memory access, plus `EGETKEY` and the
//! attacker's view of enclave memory.

use crate::epc::{EpcPage, PagePerms, PageType, PAGE_SIZE};
use crate::error::SgxError;
use crate::keys::{HardwareKeys, SealPolicy};
use crate::measure::{Measurement, EEXTEND_CHUNK};
use elide_crypto::aes::{ctr_xor, Aes};
use elide_crypto::rng::RandomSource;
use std::sync::Arc;

/// The kind of memory access being attempted (maps onto VM accesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

/// A simulated SGX-capable processor: fused keys plus a per-boot MEE key.
#[derive(Debug, Clone)]
pub struct SgxCpu {
    hw: Arc<HardwareKeys>,
    boot_nonce: [u8; 16],
}

impl SgxCpu {
    /// Powers on a processor with fresh fuses.
    pub fn new(rng: &mut dyn RandomSource) -> Self {
        let hw = HardwareKeys::generate(rng);
        let mut boot_nonce = [0u8; 16];
        rng.fill(&mut boot_nonce);
        SgxCpu { hw: Arc::new(hw), boot_nonce }
    }

    /// Simulates a reboot: same fuses, fresh MEE key.
    pub fn reboot(&mut self, rng: &mut dyn RandomSource) {
        rng.fill(&mut self.boot_nonce);
    }

    /// Persists the simulated processor (fuses + boot nonce) so separate
    /// tool invocations can model the *same* machine.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        out.extend_from_slice(&self.hw.to_bytes());
        out.extend_from_slice(&self.boot_nonce);
        out
    }

    /// Restores a processor persisted by [`SgxCpu::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<SgxCpu> {
        if bytes.len() != 48 {
            return None;
        }
        let fuse: [u8; 32] = bytes[..32].try_into().ok()?;
        let boot_nonce: [u8; 16] = bytes[32..48].try_into().ok()?;
        Some(SgxCpu { hw: Arc::new(HardwareKeys::from_bytes(fuse)), boot_nonce })
    }

    /// The fused key material (used by the quoting enclave, which on real
    /// hardware shares the key hierarchy).
    pub(crate) fn hardware(&self) -> &HardwareKeys {
        &self.hw
    }

    /// `ECREATE`: allocates an enclave covering `[base, base + size)`.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::BadAlignment`] unless both `base` and `size` are
    /// page-aligned and `size` is nonzero.
    pub fn ecreate(&self, base: u64, size: u64) -> Result<Enclave, SgxError> {
        if !base.is_multiple_of(PAGE_SIZE) || !size.is_multiple_of(PAGE_SIZE) || size == 0 {
            return Err(SgxError::BadAlignment { addr: base });
        }
        let slots = (size / PAGE_SIZE) as usize;
        Ok(Enclave {
            cpu: self.clone(),
            base,
            size,
            pages: vec![None; slots],
            page_gens: vec![0; slots],
            access_stamps: vec![0; slots],
            access_clock: 0,
            stamp_accesses: false,
            epoch: 0,
            code_epoch: 0,
            measurement: Some(Measurement::ecreate(size)),
            mrenclave: [0; 32],
            mrsigner: [0; 32],
            initialized: false,
        })
    }
}

/// One enclave instance.
pub struct Enclave {
    cpu: SgxCpu,
    base: u64,
    size: u64,
    /// Dense page table indexed by page number — ELRANGE is contiguous and
    /// small, so `vaddr → page` is one bounds check and an array index
    /// instead of a tree lookup on the interpreter's hot path.
    pages: Vec<Option<EpcPage>>,
    /// Per-page generation stamps (same indexing): moved on every write,
    /// restore, or eviction touching the page. The VM's code cache uses
    /// them for icache-style invalidation.
    page_gens: Vec<u64>,
    /// Per-page access stamps (same indexing): moved by `EADD`, reloads,
    /// and — while `stamp_accesses` is set — every load, store and execute
    /// entry touching the page. Unlike `page_gens` these never invalidate
    /// anything — they only order pages by recency so the EPC budget
    /// ([`crate::budget::EpcBudget`]) can pick LRU eviction victims.
    access_stamps: Vec<u64>,
    /// Monotonic source for access stamps.
    access_clock: u64,
    /// Whether guest accesses stamp their page. Owned by the EPC budget:
    /// [`crate::budget::EpcBudget::arm`] sets it and
    /// [`crate::budget::EpcBudget::disarm`] clears it, so an enclave
    /// without a budget pays nothing for LRU order it never uses.
    stamp_accesses: bool,
    /// Monotonic source for generation stamps.
    epoch: u64,
    /// The `epoch` value of the last generation move on an executable
    /// page; see [`Enclave::code_epoch`].
    code_epoch: u64,
    measurement: Option<Measurement>,
    mrenclave: [u8; 32],
    mrsigner: [u8; 32],
    initialized: bool,
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave")
            .field("base", &format_args!("{:#x}", self.base))
            .field("size", &format_args!("{:#x}", self.size))
            .field("pages", &self.pages.iter().flatten().count())
            .field("initialized", &self.initialized)
            .finish()
    }
}

impl Enclave {
    /// ELRANGE base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// ELRANGE size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// True after a successful `EINIT`.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// MRENCLAVE (zero before `EINIT`).
    pub fn mrenclave(&self) -> [u8; 32] {
        self.mrenclave
    }

    /// MRSIGNER (zero before `EINIT`).
    pub fn mrsigner(&self) -> [u8; 32] {
        self.mrsigner
    }

    fn check_vaddr(&self, vaddr: u64) -> Result<u64, SgxError> {
        if vaddr < self.base || vaddr >= self.base + self.size {
            return Err(SgxError::OutOfRange { addr: vaddr });
        }
        Ok(vaddr - self.base)
    }

    /// `EADD`: copies a 4 KiB page into the EPC with immutable permissions.
    ///
    /// # Errors
    ///
    /// Fails after `EINIT` (SGX-v1), on misaligned addresses, or outside
    /// ELRANGE.
    pub fn eadd(
        &mut self,
        vaddr: u64,
        data: &[u8; PAGE_SIZE as usize],
        perms: PagePerms,
        ptype: PageType,
    ) -> Result<(), SgxError> {
        if self.initialized {
            return Err(SgxError::AlreadyInitialized);
        }
        let off = self.check_vaddr(vaddr)?;
        if off % PAGE_SIZE != 0 {
            return Err(SgxError::BadAlignment { addr: vaddr });
        }
        let idx = (off / PAGE_SIZE) as usize;
        self.epoch += 1;
        self.stamp_gen(idx, perms);
        self.touch_idx(idx);
        self.pages[idx] = Some(EpcPage::new(Box::new(*data), perms, ptype));
        self.measurement.as_mut().expect("measurement live before EINIT").eadd(off, perms, ptype);
        Ok(())
    }

    /// `EADD` without updating the live measurement — the snapshot-load
    /// fast path for warm starts. The caller asserts the page set is a
    /// byte-identical replay of one it measured before (e.g. a cached
    /// [`Measurement`] held by an image plan) and finishes with
    /// [`Enclave::einit_measured`], passing that cached digest. Following
    /// unmeasured adds with a regular [`Enclave::einit`] fails with a
    /// measurement mismatch, because the live digest no longer covers
    /// these pages — the fast path cannot be used to smuggle unmeasured
    /// pages past a full `EINIT`.
    ///
    /// # Errors
    ///
    /// As [`Enclave::eadd`].
    pub fn eadd_unmeasured(
        &mut self,
        vaddr: u64,
        data: &[u8; PAGE_SIZE as usize],
        perms: PagePerms,
        ptype: PageType,
    ) -> Result<(), SgxError> {
        if self.initialized {
            return Err(SgxError::AlreadyInitialized);
        }
        let off = self.check_vaddr(vaddr)?;
        if off % PAGE_SIZE != 0 {
            return Err(SgxError::BadAlignment { addr: vaddr });
        }
        let idx = (off / PAGE_SIZE) as usize;
        self.epoch += 1;
        self.stamp_gen(idx, perms);
        self.touch_idx(idx);
        self.pages[idx] = Some(EpcPage::new(Box::new(*data), perms, ptype));
        Ok(())
    }

    /// Marks page `idx` most-recently-used for LRU victim selection.
    #[inline]
    fn touch_idx(&mut self, idx: usize) {
        self.access_clock += 1;
        self.access_stamps[idx] = self.access_clock;
    }

    /// `EEXTEND`: measures one 256-byte chunk of an added page.
    ///
    /// # Errors
    ///
    /// Fails after `EINIT`, on non-chunk-aligned offsets, or when the page
    /// has not been added.
    pub fn eextend(&mut self, vaddr: u64) -> Result<(), SgxError> {
        if self.initialized {
            return Err(SgxError::AlreadyInitialized);
        }
        let off = self.check_vaddr(vaddr)?;
        if off % EEXTEND_CHUNK as u64 != 0 {
            return Err(SgxError::BadExtendChunk);
        }
        let page_off = off & !(PAGE_SIZE - 1);
        if self.pages[(page_off / PAGE_SIZE) as usize].is_none() {
            return Err(SgxError::PageNotPresent { addr: vaddr });
        }
        // Detach the measurement so the hasher can absorb the page memory
        // as a borrowed slice — no staging copy of the chunk.
        let mut measurement = self.measurement.take().expect("measurement live before EINIT");
        let page = self.pages[(page_off / PAGE_SIZE) as usize].as_ref().expect("checked above");
        let within = (off - page_off) as usize;
        let chunk = page.data[within..within + EEXTEND_CHUNK].try_into().expect("chunk-aligned");
        measurement.eextend(off, chunk);
        self.measurement = Some(measurement);
        Ok(())
    }

    /// `EINIT`: verifies SIGSTRUCT and freezes the enclave.
    ///
    /// # Errors
    ///
    /// * [`SgxError::BadSigstruct`] — vendor signature invalid.
    /// * [`SgxError::MeasurementMismatch`] — signed MRENCLAVE differs from
    ///   the value the hardware measured ("unless the enclave's measurement
    ///   matches ... the hardware will not initialize it", §2.1).
    pub fn einit(&mut self, sigstruct: &crate::sigstruct::SigStruct) -> Result<(), SgxError> {
        if self.initialized {
            return Err(SgxError::AlreadyInitialized);
        }
        sigstruct.verify().map_err(|_| SgxError::BadSigstruct)?;
        let measured = self.measurement.take().expect("measurement live before EINIT").finalize();
        if measured != sigstruct.measurement {
            // Restore the state? Architecturally EINIT can be retried, but a
            // failed measurement means the enclave must be rebuilt anyway.
            return Err(SgxError::MeasurementMismatch {
                expected: sigstruct.measurement,
                actual: measured,
            });
        }
        self.mrenclave = measured;
        self.mrsigner = sigstruct.mrsigner().map_err(|_| SgxError::BadSigstruct)?;
        self.initialized = true;
        Ok(())
    }

    /// `EINIT` against a digest the loader measured earlier — the other
    /// half of the [`Enclave::eadd_unmeasured`] snapshot path. The
    /// SIGSTRUCT signature and the `measured == sigstruct.measurement`
    /// identity check are exactly those of [`Enclave::einit`]; what's
    /// skipped is only the per-chunk re-hashing of page contents the
    /// caller already measured once. The trust argument survives because
    /// the sealed-state fast path independently authenticates the code: a
    /// wrong `measured` claim yields a wrong MRENCLAVE, hence a wrong
    /// `EGETKEY` sealing key, and the warm-start decrypt fails closed.
    ///
    /// # Errors
    ///
    /// As [`Enclave::einit`].
    pub fn einit_measured(
        &mut self,
        sigstruct: &crate::sigstruct::SigStruct,
        measured: [u8; 32],
    ) -> Result<(), SgxError> {
        if self.initialized {
            return Err(SgxError::AlreadyInitialized);
        }
        sigstruct.verify().map_err(|_| SgxError::BadSigstruct)?;
        if measured != sigstruct.measurement {
            return Err(SgxError::MeasurementMismatch {
                expected: sigstruct.measurement,
                actual: measured,
            });
        }
        self.measurement = None;
        self.mrenclave = measured;
        self.mrsigner = sigstruct.mrsigner().map_err(|_| SgxError::BadSigstruct)?;
        self.initialized = true;
        Ok(())
    }

    fn page_for(&self, vaddr: u64, kind: AccessKind) -> Result<(&EpcPage, usize), SgxError> {
        let off = self.check_vaddr(vaddr)?;
        let page = self.pages[(off / PAGE_SIZE) as usize]
            .as_ref()
            .ok_or(SgxError::PageNotPresent { addr: vaddr })?;
        let ok = match kind {
            AccessKind::Read => page.perms.readable(),
            AccessKind::Write => page.perms.writable(),
            AccessKind::Execute => page.perms.executable(),
        };
        if !ok {
            return Err(SgxError::PermissionDenied { addr: vaddr });
        }
        Ok((page, (off % PAGE_SIZE) as usize))
    }

    /// Reads `len` bytes at `vaddr` from enclave mode, permission-checked,
    /// page-crossing allowed.
    ///
    /// # Errors
    ///
    /// Fails before `EINIT`, outside ELRANGE, on absent pages, or without
    /// read (or execute, for [`AccessKind::Execute`]) permission.
    pub fn read(&self, vaddr: u64, len: usize, kind: AccessKind) -> Result<Vec<u8>, SgxError> {
        if !self.initialized {
            return Err(SgxError::NotInitialized);
        }
        if len as u64 > self.size {
            return Err(SgxError::OutOfRange { addr: vaddr });
        }
        let mut out = vec![0u8; len];
        self.read_into(vaddr, &mut out, kind)?;
        Ok(out)
    }

    /// Allocation-free variant of [`Enclave::read`]: fills `buf` from
    /// enclave memory at `vaddr`. This is the interpreter's hot path — a
    /// load is a stack buffer and two array indexes, no heap traffic.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Enclave::read`].
    pub fn read_into(&self, vaddr: u64, buf: &mut [u8], kind: AccessKind) -> Result<(), SgxError> {
        if !self.initialized {
            return Err(SgxError::NotInitialized);
        }
        if buf.len() as u64 > self.size {
            return Err(SgxError::OutOfRange { addr: vaddr });
        }
        let mut addr = vaddr;
        let mut out = buf;
        while !out.is_empty() {
            let (page, within) = self.page_for(addr, kind)?;
            let take = out.len().min(PAGE_SIZE as usize - within);
            out[..take].copy_from_slice(&page.data[within..within + take]);
            addr += take as u64;
            out = &mut out[take..];
        }
        Ok(())
    }

    /// Single-access fast path behind guest loads: a little-endian read of
    /// `size` bytes (≤ 8) that stays within one page. Returns `None`
    /// whenever the fast conditions do not hold — page-crossing access,
    /// absent page, missing read permission, pre-`EINIT` — and the caller
    /// falls back to [`Enclave::read_into`] for the exact typed error.
    #[inline(always)]
    pub fn load_prim(&mut self, vaddr: u64, size: usize) -> Option<u64> {
        debug_assert!(size <= 8);
        let off = vaddr.wrapping_sub(self.base);
        let within = (off % PAGE_SIZE) as usize;
        if !self.initialized || within + size > PAGE_SIZE as usize {
            return None;
        }
        // `pages` has exactly one slot per ELRANGE page, so the slot
        // lookup doubles as the ELRANGE bounds check.
        let idx = usize::try_from(off / PAGE_SIZE).ok()?;
        let page = self.pages.get(idx)?.as_ref()?;
        if !page.perms.readable() {
            return None;
        }
        // Fixed-width reads: a runtime-length copy here compiles to a
        // `memcpy` call, which dominates the cost of every guest load.
        let d = &page.data[within..within + size];
        let value = match size {
            1 => d[0] as u64,
            2 => u16::from_le_bytes([d[0], d[1]]) as u64,
            4 => u32::from_le_bytes([d[0], d[1], d[2], d[3]]) as u64,
            8 => u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]),
            _ => {
                let mut buf = [0u8; 8];
                buf[..size].copy_from_slice(d);
                u64::from_le_bytes(buf)
            }
        };
        if self.stamp_accesses {
            self.touch_idx(idx);
        }
        Some(value)
    }

    /// Instruction-fetch fast path behind the interpreter: the 8 bytes at
    /// `vaddr`, within one executable page; the execute-side mirror of
    /// [`Enclave::load_prim`]. Returns `None` whenever the fast conditions
    /// do not hold — page-crossing fetch, absent page, missing execute
    /// permission, pre-`EINIT` — and the caller falls back to
    /// [`Enclave::read_into`] for the exact typed error.
    #[inline(always)]
    pub fn fetch_prim(&mut self, vaddr: u64) -> Option<[u8; 8]> {
        let off = vaddr.wrapping_sub(self.base);
        let within = (off % PAGE_SIZE) as usize;
        if !self.initialized || within + 8 > PAGE_SIZE as usize {
            return None;
        }
        // As in `load_prim`, the slot lookup doubles as the ELRANGE check.
        let idx = usize::try_from(off / PAGE_SIZE).ok()?;
        let page = self.pages.get(idx)?.as_ref()?;
        if !page.perms.executable() {
            return None;
        }
        let raw: [u8; 8] = page.data[within..within + 8].try_into().expect("8 bytes");
        if self.stamp_accesses {
            self.touch_idx(idx);
        }
        Some(raw)
    }

    /// Single-access fast path behind guest stores; mirror of
    /// [`Enclave::load_prim`]. Keeps the write-side architectural
    /// obligations: the page generation moves exactly as in
    /// [`Enclave::write`], so decode/translation caches stay coherent.
    #[inline(always)]
    pub fn store_prim(&mut self, vaddr: u64, size: usize, value: u64) -> Option<()> {
        debug_assert!(size <= 8);
        let off = vaddr.wrapping_sub(self.base);
        let within = (off % PAGE_SIZE) as usize;
        if !self.initialized || within + size > PAGE_SIZE as usize {
            return None;
        }
        let idx = usize::try_from(off / PAGE_SIZE).ok()?;
        let page = self.pages.get_mut(idx)?.as_mut()?;
        if !page.perms.writable() {
            return None;
        }
        // Mirror of the fixed-width reads in `load_prim`: constant-length
        // copies per arm instead of one runtime-length `memcpy`.
        let le = value.to_le_bytes();
        let d = &mut page.data[within..];
        match size {
            1 => d[0] = le[0],
            2 => d[..2].copy_from_slice(&le[..2]),
            4 => d[..4].copy_from_slice(&le[..4]),
            8 => d[..8].copy_from_slice(&le[..8]),
            _ => d[..size].copy_from_slice(&le[..size]),
        }
        let perms = page.perms;
        self.epoch += 1;
        self.stamp_gen(idx, perms);
        if self.stamp_accesses {
            self.touch_idx(idx);
        }
        Some(())
    }

    /// Borrowed view of the whole resident page containing `vaddr`, with
    /// one permission check for the entire page. Zero-copy accessor behind
    /// the VM's code cache; sound because EPC permissions are
    /// immutable after `EADD`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Enclave::read`].
    pub fn page_slice(
        &self,
        vaddr: u64,
        kind: AccessKind,
    ) -> Result<&[u8; PAGE_SIZE as usize], SgxError> {
        if !self.initialized {
            return Err(SgxError::NotInitialized);
        }
        let (page, _) = self.page_for(vaddr & !(PAGE_SIZE - 1), kind)?;
        Ok(&page.data)
    }

    /// Stamps page `idx` with the current `epoch` as its new generation,
    /// moving the code epoch too when the page is executable.
    #[inline(always)]
    fn stamp_gen(&mut self, idx: usize, perms: PagePerms) {
        self.page_gens[idx] = self.epoch;
        if perms.executable() {
            self.code_epoch = self.epoch;
        }
    }

    /// A counter that moves whenever the generation of an executable page
    /// moves: a write to one (guest store, range write, `EADD`) and any
    /// eviction or reload of one. While it holds still, every executable
    /// page keeps the generation [`Enclave::page_generation`] last
    /// reported, so translated code needs no per-page probe.
    pub fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// Generation stamp of the resident page containing `vaddr`: moved on
    /// every write to the page and on eviction/reload. `None` for absent
    /// pages or addresses outside ELRANGE. A stable value guarantees the
    /// page bytes (and, by `EADD` immutability, its permissions) are
    /// unchanged.
    pub fn page_generation(&self, vaddr: u64) -> Option<u64> {
        let off = vaddr.checked_sub(self.base)?;
        if off >= self.size {
            return None;
        }
        let idx = (off / PAGE_SIZE) as usize;
        self.pages[idx].as_ref()?;
        Some(self.page_gens[idx])
    }

    /// Writes bytes at `vaddr` from enclave mode, permission-checked.
    /// This is the self-modification path: it succeeds on text pages only
    /// if the sanitizer made them writable at `EADD` time.
    ///
    /// # Errors
    ///
    /// Fails before `EINIT`, outside ELRANGE, on absent pages, or without
    /// write permission.
    pub fn write(&mut self, vaddr: u64, data: &[u8]) -> Result<(), SgxError> {
        if !self.initialized {
            return Err(SgxError::NotInitialized);
        }
        // Validate the entire range first so partial writes never happen.
        let mut addr = vaddr;
        let mut remaining = data.len();
        while remaining > 0 {
            let (_, within) = self.page_for(addr, AccessKind::Write)?;
            let take = remaining.min(PAGE_SIZE as usize - within);
            addr += take as u64;
            remaining -= take;
        }
        self.epoch += 1;
        let mut addr = vaddr;
        let mut src = data;
        while !src.is_empty() {
            let off = addr - self.base;
            let idx = (off / PAGE_SIZE) as usize;
            let within = (off % PAGE_SIZE) as usize;
            let take = src.len().min(PAGE_SIZE as usize - within);
            let page = self.pages[idx].as_mut().expect("validated above");
            page.data[within..within + take].copy_from_slice(&src[..take]);
            // Moving the generation is the architectural hook for decode
            // caches: a write to an executable page is self-modification
            // and must invalidate any cached decoding.
            let perms = page.perms;
            self.stamp_gen(idx, perms);
            addr += take as u64;
            src = &src[take..];
        }
        Ok(())
    }

    /// `EGETKEY`: derives the seal key for this enclave under `policy`.
    ///
    /// # Errors
    ///
    /// Fails before `EINIT` (identity not yet established).
    pub fn egetkey(&self, policy: SealPolicy) -> Result<[u8; 16], SgxError> {
        if !self.initialized {
            return Err(SgxError::NotInitialized);
        }
        Ok(self.cpu.hw.seal_key(policy, &self.mrenclave, &self.mrsigner))
    }

    /// The report key this enclave uses to *verify* reports targeted at it.
    ///
    /// # Errors
    ///
    /// Fails before `EINIT`.
    pub fn report_key(&self) -> Result<[u8; 16], SgxError> {
        if !self.initialized {
            return Err(SgxError::NotInitialized);
        }
        Ok(self.cpu.hw.report_key(&self.mrenclave))
    }

    /// The processor this enclave runs on.
    pub fn cpu(&self) -> &SgxCpu {
        &self.cpu
    }

    // ------------------------------------------------------------------
    // Attacker views
    // ------------------------------------------------------------------

    /// What non-enclave software sees when it reads enclave linear
    /// addresses: the abort page — all ones — regardless of content.
    pub fn abort_page_read(&self, _vaddr: u64, len: usize) -> Vec<u8> {
        vec![0xFF; len]
    }

    /// What a physical attacker sees on the memory bus: the page contents
    /// encrypted by the MEE under a per-boot key. Returns `(page_offset,
    /// ciphertext)` pairs for all resident pages.
    pub fn dram_image(&self) -> Vec<(u64, Vec<u8>)> {
        let mee = Aes::new_128(&self.cpu.hw.mee_key(&self.cpu.boot_nonce));
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(idx, page)| {
                let page = page.as_ref()?;
                let off = idx as u64 * PAGE_SIZE;
                let mut buf = page.data.to_vec();
                let mut ctr = [0u8; 16];
                ctr[..8].copy_from_slice(&off.to_le_bytes());
                ctr_xor(&mee, &ctr, &mut buf);
                Some((off, buf))
            })
            .collect()
    }

    /// The measurement the hardware has accumulated so far (pre-`EINIT`).
    /// The enclave signing tool uses this to compute the value to place in
    /// SIGSTRUCT, exactly as `sgx_sign` replays the load sequence.
    ///
    /// # Errors
    ///
    /// Fails after `EINIT` (the live measurement is consumed).
    pub fn current_measurement(&self) -> Result<[u8; 32], SgxError> {
        self.measurement.as_ref().map(|m| m.current()).ok_or(SgxError::AlreadyInitialized)
    }

    pub(crate) fn page_restore(&mut self, page_off: u64, page: EpcPage) -> Result<(), SgxError> {
        let idx = (page_off / PAGE_SIZE) as usize;
        // The offset comes from an untrusted evicted blob: a corrupt value
        // must be a typed error, not an index panic.
        let slot = self.pages.get_mut(idx).ok_or(SgxError::OutOfRange { addr: page_off })?;
        self.epoch += 1;
        let perms = page.perms;
        *slot = Some(page);
        self.stamp_gen(idx, perms);
        self.touch_idx(idx);
        Ok(())
    }

    /// Clone of the resident page at `page_off` plus its current
    /// generation stamp — the EPC budget's clean-page backing capture
    /// ([`crate::budget::EpcBudget`]): a page whose generation still
    /// matches the snapshot has not been written since, so evicting it
    /// needs no sealing and reloading it is a plain copy.
    pub(crate) fn page_snapshot(&self, page_off: u64) -> Option<(EpcPage, u64)> {
        let idx = (page_off / PAGE_SIZE) as usize;
        let page = self.pages.get(idx)?.as_ref()?;
        Some((page.clone(), self.page_gens[idx]))
    }

    pub(crate) fn page_evict(&mut self, page_off: u64) -> Option<EpcPage> {
        let idx = (page_off / PAGE_SIZE) as usize;
        let page = self.pages.get_mut(idx)?.take()?;
        self.epoch += 1;
        self.stamp_gen(idx, page.perms);
        Some(page)
    }

    /// Page offsets of all resident pages (for iteration by tooling), in
    /// ascending order.
    pub fn resident_pages(&self) -> Vec<u64> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(idx, p)| p.as_ref().map(|_| idx as u64 * PAGE_SIZE))
            .collect()
    }

    /// Records an execute access to the page containing `vaddr` for LRU
    /// accounting. Called by the runtime when the superblock engine enters
    /// a page;
    /// a no-op for addresses outside ELRANGE and while no EPC budget is
    /// armed.
    #[inline]
    pub fn note_exec(&mut self, vaddr: u64) {
        if !self.stamp_accesses {
            return;
        }
        let Some(off) = vaddr.checked_sub(self.base) else { return };
        if off >= self.size {
            return;
        }
        self.touch_idx((off / PAGE_SIZE) as usize);
    }

    /// Turns per-access LRU stamping on or off; see `stamp_accesses`.
    pub(crate) fn set_access_stamping(&mut self, on: bool) {
        self.stamp_accesses = on;
    }

    /// Whether loads, stores and execute entries currently stamp their
    /// page for LRU order (true exactly while an EPC budget is armed).
    pub fn stamps_accesses(&self) -> bool {
        self.stamp_accesses
    }

    /// The LRU access stamp of the resident page containing `vaddr`
    /// (larger is more recent), or `None` for absent pages and addresses
    /// outside ELRANGE.
    pub fn access_stamp(&self, vaddr: u64) -> Option<u64> {
        let off = vaddr.checked_sub(self.base)?;
        if off >= self.size {
            return None;
        }
        let idx = (off / PAGE_SIZE) as usize;
        self.pages[idx].as_ref()?;
        Some(self.access_stamps[idx])
    }

    /// Number of resident `Reg` pages — the population the EPC budget
    /// bounds (SECS/TCS pages pin the enclave's control state and are
    /// never eviction candidates).
    pub fn resident_reg_pages(&self) -> usize {
        self.pages.iter().filter(|p| matches!(p, Some(pg) if pg.ptype == PageType::Reg)).count()
    }

    /// Page offset of the least-recently-used resident `Reg` page — the
    /// LRU eviction victim under budget pressure. `None` when no regular
    /// page is resident.
    pub fn coldest_resident_page(&self) -> Option<u64> {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Some(pg) if pg.ptype == PageType::Reg))
            .min_by_key(|(idx, _)| self.access_stamps[*idx])
            .map(|(idx, _)| idx as u64 * PAGE_SIZE)
    }

    /// Permissions of the page containing `vaddr`, if resident.
    pub fn page_perms(&self, vaddr: u64) -> Option<PagePerms> {
        let off = vaddr.checked_sub(self.base)?;
        if off >= self.size {
            return None;
        }
        self.pages[(off / PAGE_SIZE) as usize].as_ref().map(|p| p.perms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigstruct::SigStruct;
    use elide_crypto::rng::SeededRandom;
    use elide_crypto::rsa::RsaKeyPair;

    fn cpu() -> SgxCpu {
        SgxCpu::new(&mut SeededRandom::new(42))
    }

    fn vendor() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut SeededRandom::new(0xBEEF))
    }

    /// Builds and initializes a one-page enclave, returning it.
    fn small_enclave(perms: PagePerms, fill: u8) -> Enclave {
        let cpu = cpu();
        let mut e = cpu.ecreate(0x100000, 0x10000).unwrap();
        e.eadd(0x100000, &[fill; 4096], perms, PageType::Reg).unwrap();
        for i in 0..16 {
            e.eextend(0x100000 + i * 256).unwrap();
        }
        let m = e.current_measurement().unwrap();
        let sig = SigStruct::sign(&vendor(), m, 1, 1).unwrap();
        e.einit(&sig).unwrap();
        e
    }

    #[test]
    fn lifecycle_happy_path() {
        let e = small_enclave(PagePerms::RX, 7);
        assert!(e.is_initialized());
        assert_ne!(e.mrenclave(), [0u8; 32]);
        assert_eq!(e.read(0x100000, 4, AccessKind::Read).unwrap(), vec![7, 7, 7, 7]);
        assert_eq!(e.read(0x100000, 8, AccessKind::Execute).unwrap().len(), 8);
    }

    #[test]
    fn ecreate_rejects_misaligned() {
        assert!(cpu().ecreate(0x100001, 0x1000).is_err());
        assert!(cpu().ecreate(0x100000, 0x1001).is_err());
        assert!(cpu().ecreate(0x100000, 0).is_err());
    }

    #[test]
    fn write_to_readonly_text_denied() {
        let mut e = small_enclave(PagePerms::RX, 0);
        let err = e.write(0x100000, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, SgxError::PermissionDenied { .. }));
    }

    #[test]
    fn write_to_rwx_text_allowed_and_visible_to_fetch() {
        // The SgxElide case: text pages EADDed with W because the sanitizer
        // set PF_W before signing.
        let mut e = small_enclave(PagePerms::RWX, 0);
        e.write(0x100000, &[9, 9]).unwrap();
        assert_eq!(e.read(0x100000, 2, AccessKind::Execute).unwrap(), vec![9, 9]);
    }

    #[test]
    fn einit_rejects_wrong_measurement() {
        let cpu = cpu();
        let mut e = cpu.ecreate(0x100000, 0x1000).unwrap();
        e.eadd(0x100000, &[1; 4096], PagePerms::RX, PageType::Reg).unwrap();
        for i in 0..16 {
            e.eextend(0x100000 + i * 256).unwrap();
        }
        let sig = SigStruct::sign(&vendor(), [0xAB; 32], 1, 1).unwrap();
        assert!(matches!(e.einit(&sig), Err(SgxError::MeasurementMismatch { .. })));
    }

    #[test]
    fn einit_rejects_bad_signature() {
        let cpu = cpu();
        let mut e = cpu.ecreate(0x100000, 0x1000).unwrap();
        e.eadd(0x100000, &[1; 4096], PagePerms::RX, PageType::Reg).unwrap();
        let m = e.current_measurement().unwrap();
        let mut sig = SigStruct::sign(&vendor(), m, 1, 1).unwrap();
        sig.signature[0] ^= 1;
        assert_eq!(e.einit(&sig), Err(SgxError::BadSigstruct));
    }

    #[test]
    fn eadd_after_einit_rejected() {
        let mut e = small_enclave(PagePerms::RX, 0);
        let err = e.eadd(0x101000, &[0; 4096], PagePerms::RW, PageType::Reg).unwrap_err();
        assert_eq!(err, SgxError::AlreadyInitialized);
    }

    #[test]
    fn access_before_init_rejected() {
        let cpu = cpu();
        let mut e = cpu.ecreate(0x100000, 0x1000).unwrap();
        e.eadd(0x100000, &[1; 4096], PagePerms::RX, PageType::Reg).unwrap();
        assert_eq!(e.read(0x100000, 1, AccessKind::Read), Err(SgxError::NotInitialized));
        assert_eq!(e.write(0x100000, &[0]), Err(SgxError::NotInitialized));
    }

    #[test]
    fn unmeasured_page_changes_mrenclave_only_via_eadd() {
        // Two enclaves with identical EADDs but different EEXTEND coverage
        // must measure differently.
        let cpu = cpu();
        let build = |extend: bool| {
            let mut e = cpu.ecreate(0x100000, 0x1000).unwrap();
            e.eadd(0x100000, &[5; 4096], PagePerms::RX, PageType::Reg).unwrap();
            if extend {
                e.eextend(0x100000).unwrap();
            }
            e.current_measurement().unwrap()
        };
        assert_ne!(build(true), build(false));
    }

    #[test]
    fn abort_page_semantics_for_outside_readers() {
        let e = small_enclave(PagePerms::RX, 0x33);
        assert_eq!(e.abort_page_read(0x100000, 4), vec![0xFF; 4]);
    }

    #[test]
    fn dram_image_is_ciphertext_and_boot_dependent() {
        let mut rng = SeededRandom::new(42);
        let mut cpu = SgxCpu::new(&mut rng);
        let build = |cpu: &SgxCpu| {
            let mut e = cpu.ecreate(0x100000, 0x1000).unwrap();
            e.eadd(0x100000, &[0x55; 4096], PagePerms::RX, PageType::Reg).unwrap();
            e
        };
        let img1 = build(&cpu).dram_image();
        assert_ne!(img1[0].1, vec![0x55; 4096], "MEE must encrypt DRAM contents");
        cpu.reboot(&mut rng);
        let img2 = build(&cpu).dram_image();
        assert_ne!(img1[0].1, img2[0].1, "MEE key must rotate across boots");
    }

    #[test]
    fn seal_keys_differ_between_enclaves() {
        let a = small_enclave(PagePerms::RX, 1);
        let b = small_enclave(PagePerms::RX, 2);
        assert_ne!(
            a.egetkey(SealPolicy::MrEnclave).unwrap(),
            b.egetkey(SealPolicy::MrEnclave).unwrap()
        );
        // Same signer → same MRSIGNER seal key.
        assert_eq!(
            a.egetkey(SealPolicy::MrSigner).unwrap(),
            b.egetkey(SealPolicy::MrSigner).unwrap()
        );
    }

    #[test]
    fn read_into_matches_read_and_checks_perms() {
        let e = small_enclave(PagePerms::RX, 7);
        let mut buf = [0u8; 6];
        e.read_into(0x100002, &mut buf, AccessKind::Read).unwrap();
        assert_eq!(buf.to_vec(), e.read(0x100002, 6, AccessKind::Read).unwrap());
        let mut one = [0u8];
        assert!(matches!(
            e.read_into(0x100000, &mut one, AccessKind::Write),
            Err(SgxError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn fetch_prim_agrees_with_read_into_and_stamps_only_while_armed() {
        let cpu = cpu();
        let mut e = cpu.ecreate(0x100000, 0x10000).unwrap();
        let code: [u8; 4096] = std::array::from_fn(|i| (i * 7 + 3) as u8);
        e.eadd(0x100000, &code, PagePerms::RX, PageType::Reg).unwrap();
        e.eadd(0x101000, &code, PagePerms::RX, PageType::Reg).unwrap();
        e.eadd(0x102000, &[5; 4096], PagePerms::RW, PageType::Reg).unwrap();
        // 0x103000 and up stay absent.
        let in_page_rx = [0x100000, 0x100008, 0x100123, 0x100FF8, 0x101000];
        let others = [
            0x100FFC, // crosses RX → RX
            0x101FFC, // crosses RX → RW
            0x102000, // RW only
            0x103000, // absent
            0x0FFFF8, // below ELRANGE
            0x110000, // past ELRANGE
            u64::MAX - 3,
        ];
        let read = |e: &Enclave, addr: u64| {
            let mut buf = [0u8; 8];
            e.read_into(addr, &mut buf, AccessKind::Execute).map(|()| buf)
        };
        for addr in in_page_rx.into_iter().chain(others) {
            assert_eq!(e.fetch_prim(addr), None, "pre-EINIT fetch at {addr:#x}");
            assert!(read(&e, addr).is_err());
        }
        let m = e.current_measurement().unwrap();
        e.einit(&SigStruct::sign(&vendor(), m, 1, 1).unwrap()).unwrap();
        for addr in in_page_rx {
            assert_eq!(Ok(e.fetch_prim(addr).expect("fast")), read(&e, addr), "at {addr:#x}");
        }
        for addr in others {
            // Declined: the caller's slow path reads (a page-crossing fetch
            // of two executable pages) or faults.
            assert_eq!(e.fetch_prim(addr), None, "at {addr:#x}");
        }
        assert!(read(&e, 0x100FFC).is_ok());
        for addr in &others[1..] {
            assert!(read(&e, *addr).is_err(), "at {addr:#x}");
        }

        // Stamps move only while stamping is on.
        let (a, b) = (0x100000, 0x101000);
        assert!(!e.stamps_accesses());
        let before = (e.access_stamp(a), e.access_stamp(b));
        e.fetch_prim(a + 8).unwrap();
        assert_eq!((e.access_stamp(a), e.access_stamp(b)), before);
        e.set_access_stamping(true);
        e.fetch_prim(a + 8).unwrap();
        assert!(e.access_stamp(a) > e.access_stamp(b), "an armed fetch stamps its page");
        e.fetch_prim(b).unwrap();
        assert!(e.access_stamp(b) > e.access_stamp(a));
        e.set_access_stamping(false);
        let before = (e.access_stamp(a), e.access_stamp(b));
        e.fetch_prim(a).unwrap();
        assert_eq!((e.access_stamp(a), e.access_stamp(b)), before);
    }

    #[test]
    fn page_slice_is_whole_page_and_checked() {
        let e = small_enclave(PagePerms::RX, 9);
        let page = e.page_slice(0x100123, AccessKind::Execute).unwrap();
        assert_eq!(page.len(), PAGE_SIZE as usize);
        assert_eq!(page[0], 9);
        assert!(matches!(
            e.page_slice(0x100000, AccessKind::Write),
            Err(SgxError::PermissionDenied { .. })
        ));
        assert!(matches!(
            e.page_slice(0x10F000, AccessKind::Read),
            Err(SgxError::PageNotPresent { .. })
        ));
    }

    #[test]
    fn page_generation_moves_on_write_and_paging() {
        let mut e = small_enclave(PagePerms::RWX, 0);
        let g0 = e.page_generation(0x100000).unwrap();
        e.write(0x100010, &[1, 2, 3]).unwrap();
        let g1 = e.page_generation(0x100000).unwrap();
        assert_ne!(g0, g1, "a write must move the page generation");
        let page = e.page_evict(0).unwrap();
        assert_eq!(e.page_generation(0x100000), None, "absent pages have no generation");
        e.page_restore(0, page).unwrap();
        let g2 = e.page_generation(0x100000).unwrap();
        assert_ne!(g1, g2, "an evict/reload cycle must move the generation");
        // Out-of-range addresses have no generation.
        assert_eq!(e.page_generation(0x0), None);
        assert_eq!(e.page_generation(0x100000 + 0x10000), None);
    }

    #[test]
    fn code_epoch_moves_only_with_executable_pages() {
        let mut x = small_enclave(PagePerms::RWX, 0);
        let c0 = x.code_epoch();
        x.store_prim(0x100010, 8, 7).unwrap();
        let c1 = x.code_epoch();
        assert_ne!(c0, c1, "a store to an executable page moves the code epoch");
        x.write(0x100020, &[1]).unwrap();
        let c2 = x.code_epoch();
        assert_ne!(c1, c2, "a range write to an executable page moves it");
        let page = x.page_evict(0).unwrap();
        let c3 = x.code_epoch();
        assert_ne!(c2, c3, "evicting an executable page moves it");
        x.page_restore(0, page).unwrap();
        assert_ne!(c3, x.code_epoch(), "reloading an executable page moves it");

        let mut d = small_enclave(PagePerms::RW, 0);
        let c0 = d.code_epoch();
        d.store_prim(0x100010, 8, 7).unwrap();
        d.write(0x100020, &[1]).unwrap();
        let page = d.page_evict(0).unwrap();
        d.page_restore(0, page).unwrap();
        assert_eq!(d.code_epoch(), c0, "data pages never move the code epoch");
    }

    #[test]
    fn page_crossing_reads() {
        let cpu = cpu();
        let mut e = cpu.ecreate(0x100000, 0x10000).unwrap();
        e.eadd(0x100000, &[1; 4096], PagePerms::RW, PageType::Reg).unwrap();
        e.eadd(0x101000, &[2; 4096], PagePerms::RW, PageType::Reg).unwrap();
        let m = e.current_measurement().unwrap();
        let sig = SigStruct::sign(&vendor(), m, 1, 1).unwrap();
        e.einit(&sig).unwrap();
        let data = e.read(0x100FFE, 4, AccessKind::Read).unwrap();
        assert_eq!(data, vec![1, 1, 2, 2]);
        e.write(0x100FFF, &[9, 9]).unwrap();
        assert_eq!(e.read(0x100FFF, 2, AccessKind::Read).unwrap(), vec![9, 9]);
    }

    #[test]
    fn partial_write_never_happens_on_fault() {
        let cpu = cpu();
        let mut e = cpu.ecreate(0x100000, 0x10000).unwrap();
        e.eadd(0x100000, &[0; 4096], PagePerms::RW, PageType::Reg).unwrap();
        e.eadd(0x101000, &[0; 4096], PagePerms::RO, PageType::Reg).unwrap();
        let m = e.current_measurement().unwrap();
        let sig = SigStruct::sign(&vendor(), m, 1, 1).unwrap();
        e.einit(&sig).unwrap();
        // Write crossing into the read-only page must fail atomically.
        let err = e.write(0x100FFC, &[7; 8]).unwrap_err();
        assert!(matches!(err, SgxError::PermissionDenied { .. }));
        assert_eq!(e.read(0x100FFC, 4, AccessKind::Read).unwrap(), vec![0; 4]);
    }
}
