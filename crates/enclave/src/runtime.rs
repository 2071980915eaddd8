//! The enclave runtime: the host-side bridge (EENTER / ocall dispatch) and
//! the in-enclave trusted services exposed to bytecode as intrinsics.
//!
//! Memory map during enclave execution:
//!
//! * ELRANGE (the enclave image) — accesses go through [`sgx_sim::Enclave`]
//!   with the page permissions fixed at `EADD`; fetches are only allowed
//!   here (enclave mode cannot execute untrusted memory).
//! * The *untrusted marshal area* at [`UNTRUSTED_BASE`] — plain host memory
//!   both sides can read and write; ecall/ocall buffers live here, exactly
//!   like the SDK's bridge-managed buffers.

use crate::error::EnclaveError;
use crate::loader::LoadedEnclave;
use elide_crypto::dh::DhKeyPair;
use elide_crypto::gcm::AesGcm;
use elide_crypto::rng::{OsRandom, RandomSource};
use elide_crypto::sha2::Sha256;
use elide_vm::interp::{Engine, ExecStats, Exit, Vm};
use elide_vm::isa::{intrinsics, NUM_REGS};
use elide_vm::mem::{read_le_prim, write_le_prim, Access, Bus, VmFault, CODE_PAGE_SIZE};
use sgx_sim::budget::EpcBudget;
use sgx_sim::enclave::AccessKind;
use sgx_sim::epc::PagePerms;
use sgx_sim::keys::SealPolicy;
use sgx_sim::quote::QE_MEASUREMENT;
use sgx_sim::report::{ereport, verify_report, TargetInfo};
use sgx_sim::Enclave;
use std::collections::HashMap;

/// Base address of the untrusted marshal area.
pub const UNTRUSTED_BASE: u64 = 0x7000_0000;
/// Default size of the untrusted marshal area.
pub const UNTRUSTED_SIZE: usize = 1 << 20;
/// Default instruction budget per ecall.
pub const DEFAULT_FUEL: u64 = 2_000_000_000;
/// Chunk size for bulk intrinsics: one stack-allocated page per hop keeps
/// the copies allocation-free while letting `retry_after_page_in` page
/// evicted EPC pages back in mid-operation.
const BULK_CHUNK: usize = CODE_PAGE_SIZE as usize;

pub use elide_vm::isa::intrinsics::{bulk_fuel, BULK_MAX, SHA256_COMPRESS_FUEL};

/// Plain host memory shared between the enclave and the untrusted runtime.
#[derive(Clone)]
pub struct UntrustedMemory {
    data: Vec<u8>,
}

impl std::fmt::Debug for UntrustedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UntrustedMemory").field("size", &self.data.len()).finish()
    }
}

impl UntrustedMemory {
    fn new(size: usize) -> Self {
        UntrustedMemory { data: vec![0; size] }
    }

    fn offset(&self, addr: u64, len: usize) -> Option<usize> {
        let off = addr.checked_sub(UNTRUSTED_BASE)? as usize;
        if off.checked_add(len)? <= self.data.len() {
            Some(off)
        } else {
            None
        }
    }

    /// Reads `len` bytes at untrusted address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::MarshalOverflow`] if out of range.
    pub fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, EnclaveError> {
        Ok(self.slice(addr, len)?.to_vec())
    }

    /// Borrowed view of `len` bytes at untrusted address `addr` — the
    /// allocation-free accessor behind guest loads.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::MarshalOverflow`] if out of range.
    pub fn slice(&self, addr: u64, len: usize) -> Result<&[u8], EnclaveError> {
        let off = self
            .offset(addr, len)
            .ok_or(EnclaveError::MarshalOverflow { requested: len, available: self.data.len() })?;
        Ok(&self.data[off..off + len])
    }

    /// Allocation-free read into `buf` at untrusted address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::MarshalOverflow`] if out of range.
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) -> Result<(), EnclaveError> {
        buf.copy_from_slice(self.slice(addr, buf.len())?);
        Ok(())
    }

    /// Writes bytes at untrusted address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::MarshalOverflow`] if out of range.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), EnclaveError> {
        let off = self.offset(addr, bytes.len()).ok_or(EnclaveError::MarshalOverflow {
            requested: bytes.len(),
            available: self.data.len(),
        })?;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }
}

/// Trusted services state (the "statically linked SDK" inside the enclave).
struct TrustedServices {
    dh: Option<DhKeyPair>,
    rng: Box<dyn RandomSource + Send>,
}

impl std::fmt::Debug for TrustedServices {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedServices").finish_non_exhaustive()
    }
}

/// The memory world the VM executes against: enclave + untrusted area +
/// trusted services. Implements [`Bus`].
#[derive(Debug)]
pub struct EnclaveWorld {
    /// The initialized enclave.
    pub enclave: Enclave,
    /// The untrusted marshal area.
    pub untrusted: UntrustedMemory,
    services: TrustedServices,
    /// When set, records the page offset of every instruction fetch — the
    /// controlled-channel attacker's view (page-fault sequences, Xu et al.).
    page_trace: Option<Vec<u64>>,
    /// OS page-table write restrictions (`mprotect` analog): ranges the
    /// *operating system* maps read-only on top of the EPC permissions.
    /// Enforced only while the OS is honest — a malicious OS simply does
    /// not apply them (§7: "mprotect must be called outside the enclave,
    /// so this would not defend against a malicious OS").
    os_readonly: Vec<(u64, u64)>,
    /// Models a malicious OS that ignores `mprotect` requests.
    malicious_os: bool,
    /// Bounded-EPC mode: when set, resident pages are capped and the miss
    /// paths below transparently `ELDU` evicted pages back in. `None`
    /// (the default) costs nothing — the hot paths only consult it after
    /// an access already missed.
    budget: Option<EpcBudget>,
}

fn map_sgx_fault(e: sgx_sim::SgxError, addr: u64, access: Access) -> VmFault {
    match e {
        sgx_sim::SgxError::PermissionDenied { addr } => VmFault::AccessViolation { addr, access },
        sgx_sim::SgxError::PageNotPresent { addr } | sgx_sim::SgxError::OutOfRange { addr } => {
            VmFault::Unmapped { addr, access }
        }
        _ => VmFault::Unmapped { addr, access },
    }
}

impl EnclaveWorld {
    fn in_enclave(&self, addr: u64) -> bool {
        addr >= self.enclave.base() && addr < self.enclave.base() + self.enclave.size()
    }

    /// Reloads the evicted page a range operation faulted on, for up to
    /// one retry per page the range can touch. Returns `Err` (propagating
    /// the original fault) once the retry budget is exhausted — a single
    /// access spanning more pages than the EPC cap must fault, not
    /// livelock on eviction ping-pong.
    fn retry_after_page_in(
        &mut self,
        e: &sgx_sim::SgxError,
        access: Access,
        retries: &mut usize,
    ) -> Result<bool, VmFault> {
        if let sgx_sim::SgxError::PageNotPresent { addr } = *e {
            if *retries > 0 && self.budget_page_in(addr, access)? {
                *retries -= 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn read_guest(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, VmFault> {
        if self.in_enclave(addr) {
            let mut retries = 2 + len / 4096;
            loop {
                match self.enclave.read(addr, len, AccessKind::Read) {
                    Ok(v) => return Ok(v),
                    Err(e) => {
                        if !self.retry_after_page_in(&e, Access::Read, &mut retries)? {
                            return Err(map_sgx_fault(e, addr, Access::Read));
                        }
                    }
                }
            }
        } else {
            self.untrusted
                .read(addr, len)
                .map_err(|_| VmFault::Unmapped { addr, access: Access::Read })
        }
    }

    /// Allocation-free variant of [`Self::read_guest`] backing the VM's
    /// load path: the destination is a caller-owned stack buffer.
    fn read_guest_into(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), VmFault> {
        if self.in_enclave(addr) {
            let mut retries = 2 + buf.len() / 4096;
            loop {
                match self.enclave.read_into(addr, buf, AccessKind::Read) {
                    Ok(()) => return Ok(()),
                    Err(e) => {
                        if !self.retry_after_page_in(&e, Access::Read, &mut retries)? {
                            return Err(map_sgx_fault(e, addr, Access::Read));
                        }
                    }
                }
            }
        } else {
            self.untrusted
                .read_into(addr, buf)
                .map_err(|_| VmFault::Unmapped { addr, access: Access::Read })
        }
    }

    /// Whether the honest-OS page-table write restrictions permit a write
    /// of `len` bytes at `addr`. `os_readonly` is sorted and disjoint: the
    /// only candidate overlap is the first range ending after `addr`.
    #[inline]
    fn os_write_allowed(&self, addr: u64, len: u64) -> bool {
        if self.malicious_os {
            return true;
        }
        // Bounds fast-out before the binary search: after `elide_restore`
        // revokes write on the text segment, every data/stack store of the
        // protected build pays this check — and they all land above the
        // revoked text, so two compares against the outermost bounds
        // settle the common case. (This was most of the XTEA
        // elide-vs-plain throughput gap.)
        let (Some(&(first_lo, _)), Some(&(_, last_hi))) =
            (self.os_readonly.first(), self.os_readonly.last())
        else {
            return true;
        };
        let end = addr.saturating_add(len);
        if addr >= last_hi || end <= first_lo {
            return true;
        }
        let i = self.os_readonly.partition_point(|&(_, hi)| hi <= addr);
        match self.os_readonly.get(i) {
            Some(&(lo, _)) => lo >= end,
            None => true,
        }
    }

    fn write_guest(&mut self, addr: u64, data: &[u8]) -> Result<(), VmFault> {
        if self.in_enclave(addr) {
            if !self.os_write_allowed(addr, data.len() as u64) {
                return Err(VmFault::AccessViolation { addr, access: Access::Write });
            }
            let mut retries = 2 + data.len() / 4096;
            loop {
                match self.enclave.write(addr, data) {
                    Ok(()) => return Ok(()),
                    Err(e) => {
                        if !self.retry_after_page_in(&e, Access::Write, &mut retries)? {
                            return Err(map_sgx_fault(e, addr, Access::Write));
                        }
                    }
                }
            }
        } else {
            self.untrusted
                .write(addr, data)
                .map_err(|_| VmFault::Unmapped { addr, access: Access::Write })
        }
    }

    /// Attempts a transparent reload of the evicted page containing
    /// `addr`. `Ok(true)` iff a page came back (retry the access);
    /// `Ok(false)` when no budget is armed or the page is not evicted
    /// (the miss is genuine). A blob failing its integrity/freshness
    /// checks is a fault at `addr` — the guest sees the page as gone.
    fn budget_page_in(&mut self, addr: u64, access: Access) -> Result<bool, VmFault> {
        let Some(budget) = self.budget.as_mut() else { return Ok(false) };
        budget.page_in(&mut self.enclave, addr).map_err(|e| map_sgx_fault(e, addr, access))
    }

    /// Every guest load [`Enclave::load_prim`] cannot serve: the marshal
    /// area, page-crossing loads, evicted pages (reloaded here under an
    /// armed budget) and faults. Kept out of line so the fast path stays
    /// small at each of the engines' load sites.
    #[inline(never)]
    fn load_slow(&mut self, addr: u64, size: usize) -> Result<u64, VmFault> {
        if !self.in_enclave(addr) {
            let off = self
                .untrusted
                .offset(addr, size)
                .ok_or(VmFault::Unmapped { addr, access: Access::Read })?;
            return Ok(read_le_prim(&self.untrusted.data[off..], size));
        }
        if self.budget_page_in(addr, Access::Read)? {
            if let Some(v) = self.enclave.load_prim(addr, size) {
                return Ok(v);
            }
        }
        let mut buf = [0u8; 8];
        self.read_guest_into(addr, &mut buf[..size])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// The store-side mirror of [`Self::load_slow`]; the range path
    /// re-checks the OS write restrictions and raises the typed fault.
    #[inline(never)]
    fn store_slow(&mut self, addr: u64, size: usize, value: u64) -> Result<(), VmFault> {
        if !self.in_enclave(addr) {
            let off = self
                .untrusted
                .offset(addr, size)
                .ok_or(VmFault::Unmapped { addr, access: Access::Write })?;
            write_le_prim(&mut self.untrusted.data[off..], size, value);
            return Ok(());
        }
        if self.os_write_allowed(addr, size as u64)
            && self.budget_page_in(addr, Access::Write)?
            && self.enclave.store_prim(addr, size, value).is_some()
        {
            return Ok(());
        }
        let bytes = value.to_le_bytes();
        self.write_guest(addr, &bytes[..size])
    }

    /// Every instruction fetch [`Enclave::fetch_prim`] cannot serve, and
    /// every fetch while the page trace records: the trace push, the
    /// budget's page-in of an evicted code page, and the exact faults.
    #[inline(never)]
    fn fetch_slow(&mut self, addr: u64) -> Result<[u8; 8], VmFault> {
        // Enclave mode: instruction fetches outside ELRANGE are prohibited.
        if !self.in_enclave(addr) {
            return Err(VmFault::AccessViolation { addr, access: Access::Execute });
        }
        if let Some(trace) = &mut self.page_trace {
            let page = addr & !0xFFF;
            if trace.last() != Some(&page) {
                trace.push(page);
            }
        }
        let mut raw = [0u8; 8];
        if let Err(e) = self.enclave.read_into(addr, &mut raw, AccessKind::Execute) {
            let reloaded = matches!(e, sgx_sim::SgxError::PageNotPresent { .. })
                && self.budget_page_in(addr, Access::Execute)?;
            if !reloaded {
                return Err(map_sgx_fault(e, addr, Access::Execute));
            }
            self.enclave
                .read_into(addr, &mut raw, AccessKind::Execute)
                .map_err(|e| map_sgx_fault(e, addr, Access::Execute))?;
        }
        Ok(raw)
    }

    /// Validates one operand range of a bulk intrinsic: non-empty, under
    /// the [`BULK_MAX`] cap, and not wrapping the address space.
    fn check_bulk_range(index: i32, addr: u64, len: u64) -> Result<(), VmFault> {
        if len == 0 || len > BULK_MAX || addr.checked_add(len).is_none() {
            return Err(VmFault::BadBulkArgs { index });
        }
        Ok(())
    }

    /// MEMCPY: forward copy of `len` bytes from `src` to `dst` in
    /// page-sized chunks. The ranges must not overlap — a forward chunked
    /// copy over an overlap would silently read already-written bytes, so
    /// the contract rejects it outright. Routing each chunk through the
    /// guarded range accessors keeps EPC paging transparent and the
    /// OS write-revocation on elided text enforced.
    fn bulk_memcpy(&mut self, index: i32, dst: u64, src: u64, len: u64) -> Result<(), VmFault> {
        Self::check_bulk_range(index, dst, len)?;
        Self::check_bulk_range(index, src, len)?;
        if dst < src + len && src < dst + len {
            return Err(VmFault::BadBulkArgs { index });
        }
        let mut buf = [0u8; BULK_CHUNK];
        let mut off = 0u64;
        while off < len {
            let n = ((len - off) as usize).min(BULK_CHUNK);
            self.read_guest_into(src + off, &mut buf[..n])?;
            self.write_guest(dst + off, &buf[..n])?;
            off += n as u64;
        }
        Ok(())
    }

    /// MEMSET: fills `len` bytes at `dst` with `byte`, in page-sized chunks.
    fn bulk_memset(&mut self, index: i32, dst: u64, byte: u8, len: u64) -> Result<(), VmFault> {
        Self::check_bulk_range(index, dst, len)?;
        let buf = [byte; BULK_CHUNK];
        let mut off = 0u64;
        while off < len {
            let n = ((len - off) as usize).min(BULK_CHUNK);
            self.write_guest(dst + off, &buf[..n])?;
            off += n as u64;
        }
        Ok(())
    }

    /// MEMCMP: constant-time comparison of two `len`-byte ranges — the
    /// full length is always scanned so the result's timing leaks nothing
    /// about the position of the first difference (the sealed-secret use
    /// case: MAC and key comparisons). Overlap is harmless for a pure
    /// read. Returns `0` for equal, `1` for different.
    fn bulk_memcmp(&mut self, index: i32, a: u64, b: u64, len: u64) -> Result<u64, VmFault> {
        Self::check_bulk_range(index, a, len)?;
        Self::check_bulk_range(index, b, len)?;
        let mut abuf = [0u8; BULK_CHUNK];
        let mut bbuf = [0u8; BULK_CHUNK];
        let mut diff = 0u8;
        let mut off = 0u64;
        while off < len {
            let n = ((len - off) as usize).min(BULK_CHUNK);
            self.read_guest_into(a + off, &mut abuf[..n])?;
            self.read_guest_into(b + off, &mut bbuf[..n])?;
            for i in 0..n {
                diff |= abuf[i] ^ bbuf[i];
            }
            off += n as u64;
        }
        Ok(u64::from(diff != 0))
    }

    /// SHA256_COMPRESS: one compression-function round over the 64-byte
    /// block at `block`, updating the eight little-endian `u32` state
    /// words at `state` in place. Padding is the guest's job.
    fn bulk_sha256_compress(&mut self, state_ptr: u64, block_ptr: u64) -> Result<(), VmFault> {
        let mut state_bytes = [0u8; 32];
        let mut block = [0u8; 64];
        self.read_guest_into(state_ptr, &mut state_bytes)?;
        self.read_guest_into(block_ptr, &mut block)?;
        let mut state = [0u32; 8];
        for (w, chunk) in state.iter_mut().zip(state_bytes.chunks_exact(4)) {
            *w = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        Sha256::compress(&mut state, &block);
        for (w, chunk) in state.iter().zip(state_bytes.chunks_exact_mut(4)) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        self.write_guest(state_ptr, &state_bytes)
    }
}

impl Bus for EnclaveWorld {
    // `load` and `store` (and the `Enclave` fast paths under them) are
    // forced inline into every engine access site: left to the inliner,
    // each guest access became an out-of-line call, which cost more than
    // the access itself.
    #[inline(always)]
    fn load(&mut self, addr: u64, size: usize) -> Result<u64, VmFault> {
        debug_assert!(size <= 8);
        // In-page enclave loads — the guest's stack, bss and lookup tables
        // — complete without the page-crossing walk or error mapping.
        match self.enclave.load_prim(addr, size) {
            Some(v) => Ok(v),
            None => self.load_slow(addr, size),
        }
    }

    #[inline(always)]
    fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), VmFault> {
        debug_assert!(size <= 8);
        if self.os_write_allowed(addr, size as u64)
            && self.enclave.store_prim(addr, size, value).is_some()
        {
            return Ok(());
        }
        self.store_slow(addr, size, value)
    }

    #[inline(always)]
    fn fetch(&mut self, addr: u64) -> Result<[u8; 8], VmFault> {
        // The controlled-channel trace records every fetch, so it takes
        // the slow path.
        if self.page_trace.is_none() {
            if let Some(raw) = self.enclave.fetch_prim(addr) {
                return Ok(raw);
            }
        }
        self.fetch_slow(addr)
    }

    fn exec_page_generation(&mut self, page_addr: u64) -> Option<u64> {
        // Page-granular execution is only offered when it is exactly
        // equivalent to per-instruction fetches: never while the
        // controlled-channel trace is recording (the fast path would hide
        // fetches from the attacker's page-fault view), never outside
        // ELRANGE, and never on a non-executable page.
        if self.page_trace.is_some() || !self.in_enclave(page_addr) {
            return None;
        }
        if self.enclave.page_perms(page_addr).is_none() {
            // An evicted code page: bring it back before the engine gives
            // up on page-granular execution. Reload failures fall through
            // to the per-instruction fetch path, which faults properly.
            let budget = self.budget.as_mut()?;
            budget.page_in(&mut self.enclave, page_addr).ok()?;
        }
        if !self.enclave.page_perms(page_addr)?.executable() {
            return None;
        }
        // LRU accounting: block entry is the execute-side access.
        self.enclave.note_exec(page_addr);
        self.enclave.page_generation(page_addr)
    }

    #[inline]
    fn code_epoch(&mut self) -> Option<u64> {
        // Under the controlled-channel trace or an armed EPC budget every
        // page entry must reach `exec_page_generation`: the trace records
        // it, the budget pages code in and stamps it for LRU order.
        if self.page_trace.is_some() || self.budget.is_some() {
            return None;
        }
        Some(self.enclave.code_epoch())
    }

    fn fetch_exec_page(
        &mut self,
        page_addr: u64,
        buf: &mut [u8; CODE_PAGE_SIZE as usize],
    ) -> Result<u64, VmFault> {
        if self.enclave.page_generation(page_addr).is_none() {
            self.budget_page_in(page_addr, Access::Execute)?;
        }
        let gen = self
            .enclave
            .page_generation(page_addr)
            .ok_or(VmFault::Unmapped { addr: page_addr, access: Access::Execute })?;
        let page = self
            .enclave
            .page_slice(page_addr, AccessKind::Execute)
            .map_err(|e| map_sgx_fault(e, page_addr, Access::Execute))?;
        buf.copy_from_slice(&page[..]);
        Ok(gen)
    }

    fn read_bytes(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, VmFault> {
        self.read_guest(addr, len)
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), VmFault> {
        self.write_guest(addr, data)
    }

    fn intrinsic(&mut self, index: i32, regs: &mut [u64; NUM_REGS]) -> Result<u64, VmFault> {
        let bad = || VmFault::BadIntrinsic { index };
        match index {
            // Bulk data intrinsics return the fuel they consumed up front:
            // proportional to bytes moved, so `retired` keeps meaning
            // "work done" whether an app copies with a loop or one call.
            intrinsics::MEMCPY => {
                self.bulk_memcpy(index, regs[1], regs[2], regs[3])?;
                regs[0] = 0;
                return Ok(bulk_fuel(regs[3]));
            }
            intrinsics::MEMSET => {
                self.bulk_memset(index, regs[1], regs[2] as u8, regs[3])?;
                regs[0] = 0;
                return Ok(bulk_fuel(regs[3]));
            }
            intrinsics::MEMCMP => {
                regs[0] = self.bulk_memcmp(index, regs[1], regs[2], regs[3])?;
                return Ok(bulk_fuel(regs[3]));
            }
            intrinsics::SHA256_COMPRESS => {
                self.bulk_sha256_compress(regs[1], regs[2])?;
                regs[0] = 0;
                return Ok(SHA256_COMPRESS_FUEL);
            }
            intrinsics::AESGCM_ENCRYPT | intrinsics::AESGCM_DECRYPT => {
                let key: [u8; 16] = self.read_guest(regs[1], 16)?.try_into().map_err(|_| bad())?;
                let iv: [u8; 12] = self.read_guest(regs[2], 12)?.try_into().map_err(|_| bad())?;
                let src = regs[3];
                let len = regs[4] as usize;
                let dst = regs[5];
                let gcm = AesGcm::new(&key).map_err(|_| bad())?;
                if index == intrinsics::AESGCM_ENCRYPT {
                    let plain = self.read_guest(src, len)?;
                    let (ct, tag) = gcm.seal(&iv, &[], &plain);
                    self.write_guest(dst, &ct)?;
                    self.write_guest(dst + len as u64, &tag)?;
                    regs[0] = 0;
                } else {
                    // Ciphertext followed by its 16-byte tag.
                    let ct = self.read_guest(src, len)?;
                    let tag: [u8; 16] =
                        self.read_guest(src + len as u64, 16)?.try_into().map_err(|_| bad())?;
                    match gcm.open(&iv, &[], &ct, &tag) {
                        Ok(plain) => {
                            self.write_guest(dst, &plain)?;
                            regs[0] = 0;
                        }
                        Err(_) => regs[0] = 1,
                    }
                }
            }
            intrinsics::SHA256 => {
                let data = self.read_guest(regs[1], regs[2] as usize)?;
                let digest = Sha256::digest(&data);
                self.write_guest(regs[3], &digest)?;
                regs[0] = 0;
            }
            intrinsics::EGETKEY => {
                let policy = match regs[1] {
                    0 => SealPolicy::MrEnclave,
                    1 => SealPolicy::MrSigner,
                    _ => return Err(bad()),
                };
                let key = self.enclave.egetkey(policy).map_err(|_| bad())?;
                self.write_guest(regs[2], &key)?;
                regs[0] = 0;
            }
            intrinsics::EREPORT => {
                let data: [u8; 64] = self.read_guest(regs[1], 64)?.try_into().map_err(|_| bad())?;
                let report =
                    ereport(&self.enclave, &TargetInfo { mrenclave: QE_MEASUREMENT }, data)
                        .map_err(|_| bad())?;
                self.write_guest(regs[2], &report.to_bytes())?;
                regs[0] = sgx_sim::report::Report::SERIALIZED_LEN as u64;
            }
            intrinsics::EREPORT_TARGETED => {
                let data: [u8; 64] = self.read_guest(regs[1], 64)?.try_into().map_err(|_| bad())?;
                let mrenclave: [u8; 32] =
                    self.read_guest(regs[3], 32)?.try_into().map_err(|_| bad())?;
                let report =
                    ereport(&self.enclave, &TargetInfo { mrenclave }, data).map_err(|_| bad())?;
                self.write_guest(regs[2], &report.to_bytes())?;
                regs[0] = sgx_sim::report::Report::SERIALIZED_LEN as u64;
            }
            intrinsics::VERIFY_REPORT => {
                let raw = self.read_guest(regs[1], sgx_sim::report::Report::SERIALIZED_LEN)?;
                regs[0] = match sgx_sim::report::Report::from_bytes(&raw) {
                    Some(report) if verify_report(&self.enclave, &report).is_ok() => 0,
                    _ => 1,
                };
            }
            intrinsics::DH_KEYGEN => {
                let kp = DhKeyPair::generate(self.services.rng.as_mut());
                let public = kp.public_bytes();
                self.services.dh = Some(kp);
                self.write_guest(regs[1], &public)?;
                regs[0] = public.len() as u64;
            }
            intrinsics::DH_DERIVE => {
                let peer = self.read_guest(regs[1], regs[2] as usize)?;
                let kp = self.services.dh.as_ref().ok_or_else(bad)?;
                match kp.derive_session_key(&peer) {
                    Some(key) => {
                        self.write_guest(regs[3], &key)?;
                        regs[0] = 0;
                    }
                    None => regs[0] = 1,
                }
            }
            intrinsics::RAND => {
                let mut buf = vec![0u8; regs[2] as usize];
                self.services.rng.fill(&mut buf);
                self.write_guest(regs[1], &buf)?;
                regs[0] = 0;
            }
            _ => return Err(bad()),
        }
        // Trusted-service intrinsics keep their historical flat cost of
        // one retired instruction (the `intrin` itself).
        Ok(0)
    }
}

/// Signature of an ocall handler: receives the guest registers (arguments
/// in `r1..r5`, result in `r0`) and the untrusted memory — the host can
/// never touch enclave memory, exactly like a real ocall. Handlers are
/// `Send` so a launched runtime can be shared across host threads (e.g. a
/// delegate enclave serving peers behind a mutex).
pub type OcallHandler =
    Box<dyn FnMut(&mut [u64; NUM_REGS], &mut UntrustedMemory) -> Result<(), EnclaveError> + Send>;

/// Result of one ecall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcallResult {
    /// The guest's `r0` at `halt` (the ecall's return value).
    pub status: u64,
    /// Contents of the output area.
    pub output: Vec<u8>,
    /// Instructions retired servicing this ecall.
    pub instructions: u64,
}

/// A running enclave plus its untrusted runtime (ocall table, marshal area).
pub struct EnclaveRuntime {
    world: EnclaveWorld,
    entry: u64,
    stack_top: u64,
    ocalls: HashMap<i32, OcallHandler>,
    /// Instruction budget per ecall.
    pub fuel: u64,
    retired_total: u64,
    /// The persistent VM: its code cache (and its counters) survives
    /// across ecalls — real enclaves do not lose their
    /// icache at EENTER either. Registers, pc and sp are reset at every
    /// entry, so no guest state leaks between ecalls.
    vm: Vm,
}

impl std::fmt::Debug for EnclaveRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclaveRuntime")
            .field("entry", &format_args!("{:#x}", self.entry))
            .field("ocalls", &self.ocalls.len())
            .finish_non_exhaustive()
    }
}

impl EnclaveRuntime {
    /// Wraps a loaded enclave with a default-sized marshal area and OS RNG.
    pub fn new(loaded: LoadedEnclave) -> Self {
        Self::with_rng(loaded, Box::new(OsRandom))
    }

    /// Wraps a loaded enclave, supplying the RNG for trusted services
    /// (seeded in tests for reproducibility).
    pub fn with_rng(loaded: LoadedEnclave, rng: Box<dyn RandomSource + Send>) -> Self {
        EnclaveRuntime {
            world: EnclaveWorld {
                enclave: loaded.enclave,
                untrusted: UntrustedMemory::new(UNTRUSTED_SIZE),
                services: TrustedServices { dh: None, rng },
                page_trace: None,
                os_readonly: Vec::new(),
                malicious_os: false,
                budget: None,
            },
            entry: loaded.entry,
            stack_top: loaded.stack_top,
            ocalls: HashMap::new(),
            fuel: DEFAULT_FUEL,
            retired_total: 0,
            vm: Vm::new(loaded.entry),
        }
    }

    /// Execution-tier counters accumulated by the persistent VM.
    pub fn exec_stats(&self) -> ExecStats {
        self.vm.stats
    }

    /// Selects the execution tier for subsequent ecalls (the superblock
    /// engine by default; [`Engine::Interp`] for differential debugging
    /// and A/B benches).
    pub fn set_engine(&mut self, engine: Engine) {
        self.vm.set_engine(engine);
    }

    /// The execution tier currently driving ecalls.
    pub fn engine(&self) -> Engine {
        self.vm.engine
    }

    /// Registers an ocall handler under `index`.
    pub fn register_ocall(&mut self, index: i32, handler: OcallHandler) {
        self.ocalls.insert(index, handler);
    }

    /// The enclave (for assertions and attacker-view helpers).
    pub fn enclave(&self) -> &Enclave {
        &self.world.enclave
    }

    /// Mutable access to the whole memory world — used by host-side
    /// tooling such as the EPC paging manager, which on real hardware is
    /// the (untrusted) kernel driver manipulating EPC mappings.
    pub fn world_mut(&mut self) -> &mut EnclaveWorld {
        &mut self.world
    }

    /// Arms bounded-EPC mode: caps resident pages at `budget.cap_pages()`
    /// and immediately enforces the cap (evicting LRU victims), so the
    /// runtime starts within budget. Subsequent accesses to evicted pages
    /// transparently reload them. The current resident set is captured as
    /// the budget's clean backing first, so pristine pages page out and
    /// back as plain copies rather than EWB/ELDU sealing cycles until
    /// they are first written.
    ///
    /// # Errors
    ///
    /// Propagates paging failures from the initial enforcement.
    pub fn set_epc_budget(&mut self, mut budget: EpcBudget) -> Result<usize, EnclaveError> {
        let evicted = budget.arm(&mut self.world.enclave).map_err(EnclaveError::Sgx)?;
        self.world.budget = Some(budget);
        Ok(evicted)
    }

    /// The armed EPC budget, if any (counters for benches/tests).
    pub fn epc_budget(&self) -> Option<&EpcBudget> {
        self.world.budget.as_ref()
    }

    /// Mutable access to the armed EPC budget (e.g. to arm tampering).
    pub fn epc_budget_mut(&mut self) -> Option<&mut EpcBudget> {
        self.world.budget.as_mut()
    }

    /// Disarms bounded-EPC mode, returning the budget (with any evicted
    /// blobs it still holds — reload them first if the enclave should
    /// keep running unbounded).
    pub fn take_epc_budget(&mut self) -> Option<EpcBudget> {
        let budget = self.world.budget.take()?;
        budget.disarm(&mut self.world.enclave);
        Some(budget)
    }

    /// The untrusted marshal area.
    pub fn untrusted(&self) -> &UntrustedMemory {
        &self.world.untrusted
    }

    /// Mutable untrusted marshal area (host side).
    pub fn untrusted_mut(&mut self) -> &mut UntrustedMemory {
        &mut self.world.untrusted
    }

    /// Performs an ecall: writes `input` into the marshal area, enters the
    /// enclave at the dispatch entry, services ocalls until `halt`, and
    /// returns `r0` plus the output area.
    ///
    /// # Errors
    ///
    /// * [`EnclaveError::Fault`] — the guest faulted (e.g. called a
    ///   sanitized function before restoration).
    /// * [`EnclaveError::UnknownOcall`] — unregistered ocall index.
    /// * [`EnclaveError::MarshalOverflow`] — input larger than the area.
    pub fn ecall(
        &mut self,
        index: u64,
        input: &[u8],
        out_cap: usize,
    ) -> Result<EcallResult, EnclaveError> {
        let in_ptr = UNTRUSTED_BASE + 4096;
        let out_ptr = in_ptr + ((input.len() as u64 + 15) & !15) + 16;
        self.world.untrusted.write(in_ptr, input)?;
        // Zero the output area for deterministic results.
        self.world.untrusted.write(out_ptr, &vec![0u8; out_cap])?;

        let vm = &mut self.vm;
        vm.regs = [0; NUM_REGS];
        vm.pc = self.entry;
        vm.set_sp(self.stack_top);
        vm.regs[1] = index;
        vm.regs[2] = in_ptr;
        vm.regs[3] = input.len() as u64;
        vm.regs[4] = out_ptr;
        vm.regs[5] = out_cap as u64;
        let start = vm.retired;

        // `fuel` is the budget for the whole ecall: instructions retired
        // before an ocall count against the resumes after it.
        let mut remaining = self.fuel;
        loop {
            let before = vm.retired;
            let exit = vm.run(&mut self.world, remaining);
            self.retired_total += vm.retired - before;
            remaining = remaining.saturating_sub(vm.retired - before);
            match exit? {
                Exit::Halt(status) => {
                    let output = self.world.untrusted.read(out_ptr, out_cap)?;
                    return Ok(EcallResult { status, output, instructions: vm.retired - start });
                }
                Exit::Ocall(ocall_index) => {
                    let handler = self
                        .ocalls
                        .get_mut(&ocall_index)
                        .ok_or(EnclaveError::UnknownOcall { index: ocall_index })?;
                    handler(&mut vm.regs, &mut self.world.untrusted)?;
                }
            }
        }
    }

    /// Total instructions retired across every ecall on this runtime —
    /// the numerator of the throughput benchmarks.
    pub fn retired_total(&self) -> u64 {
        self.retired_total
    }

    /// Text-page permissions at `vaddr`, for assertions about the
    /// sanitizer's `PF_W` patch.
    pub fn page_perms(&self, vaddr: u64) -> Option<PagePerms> {
        self.world.enclave.page_perms(vaddr)
    }

    /// Starts recording the page offsets of instruction fetches — the
    /// observable of a controlled-channel attacker (a malicious OS tracking
    /// page faults, §7).
    pub fn enable_page_trace(&mut self) {
        self.world.page_trace = Some(Vec::new());
    }

    /// Takes the recorded page trace, leaving tracing enabled.
    pub fn take_page_trace(&mut self) -> Vec<u64> {
        match &mut self.world.page_trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// `mprotect(addr, len, PROT_READ|PROT_EXEC)` analog: asks the OS to
    /// revoke write access to an enclave address range on top of the EPC
    /// permissions. The paper adds exactly this after restoration (§7).
    /// The protection is only as strong as the OS: see
    /// [`EnclaveRuntime::set_malicious_os`].
    pub fn os_revoke_write(&mut self, addr: u64, len: u64) {
        let lo = addr;
        let hi = addr.saturating_add(len);
        if lo >= hi {
            return;
        }
        // Keep the range list sorted and disjoint, coalescing any existing
        // ranges the new one overlaps or abuts — repeated restore cycles
        // would otherwise grow the list (and the per-write scan) forever.
        let ranges = &mut self.world.os_readonly;
        let start = ranges.partition_point(|&(_, h)| h < lo);
        let end = ranges.partition_point(|&(l, _)| l <= hi);
        let mut merged = (lo, hi);
        for &(l, h) in &ranges[start..end] {
            merged.0 = merged.0.min(l);
            merged.1 = merged.1.max(h);
        }
        ranges.splice(start..end, std::iter::once(merged));
    }

    /// The OS-level read-only ranges currently in force (sorted, disjoint).
    pub fn os_readonly_ranges(&self) -> &[(u64, u64)] {
        &self.world.os_readonly
    }

    /// Models an OS that ignores `mprotect` requests — the §7 limitation
    /// ("this would not defend against a malicious OS or host
    /// application").
    pub fn set_malicious_os(&mut self, malicious: bool) {
        self.world.malicious_os = malicious;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{load_enclave, sign_enclave};
    use crate::trts::{ecall_table_asm, TRTS_ASM};
    use elide_crypto::rng::SeededRandom;
    use elide_crypto::rsa::RsaKeyPair;
    use elide_vm::asm::assemble_all;
    use elide_vm::link::{link, LinkOptions};
    use sgx_sim::SgxCpu;

    fn build_runtime(user_asm: &str, ecalls: &[&str]) -> EnclaveRuntime {
        let table = ecall_table_asm(ecalls);
        let objs = assemble_all([TRTS_ASM, user_asm, table.as_str()]).unwrap();
        let image = link(&objs, &LinkOptions::default()).unwrap();
        let mut rng = SeededRandom::new(11);
        let cpu = SgxCpu::new(&mut rng);
        let vendor = RsaKeyPair::generate(512, &mut rng);
        let sig = sign_enclave(&image, &vendor, 1, 1).unwrap();
        let loaded = load_enclave(&cpu, &image, &sig).unwrap();
        EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(99)))
    }

    #[test]
    fn simple_ecall_returns_status() {
        let mut rt = build_runtime(
            ".section text\n.global answer\n.func answer\n    movi r0, 42\n    ret\n.endfunc\n",
            &["answer"],
        );
        let r = rt.ecall(0, &[], 0).unwrap();
        assert_eq!(r.status, 42);
    }

    #[test]
    fn bad_ecall_index_returns_minus_one() {
        let mut rt = build_runtime(
            ".section text\n.global answer\n.func answer\n    movi r0, 42\n    ret\n.endfunc\n",
            &["answer"],
        );
        let r = rt.ecall(7, &[], 0).unwrap();
        assert_eq!(r.status as i64, -1);
    }

    #[test]
    fn ecall_reads_input_writes_output() {
        // Copies input to output, returns the length.
        let user = "
.section text
.global echo
.func echo
    ; r2=in, r3=len, r4=out; memcpy(dst=r1, src=r2, len=r3)
    mov  r1, r4
    push r3
    call elide_memcpy
    pop  r0
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["echo"]);
        let r = rt.ecall(0, b"hello enclave", 32).unwrap();
        assert_eq!(r.status, 13);
        assert_eq!(&r.output[..13], b"hello enclave");
    }

    #[test]
    fn ocall_roundtrip() {
        // Guest asks the host to add 1 to r1.
        let user = "
.section text
.global ask_host
.func ask_host
    movi r1, 41
    ocall 3
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["ask_host"]);
        rt.register_ocall(
            3,
            Box::new(|regs, _mem| {
                regs[0] = regs[1] + 1;
                Ok(())
            }),
        );
        let r = rt.ecall(0, &[], 0).unwrap();
        assert_eq!(r.status, 42);
    }

    #[test]
    fn unknown_ocall_is_an_error() {
        let user = ".section text\n.global f\n.func f\n    ocall 9\n    ret\n.endfunc\n";
        let mut rt = build_runtime(user, &["f"]);
        assert_eq!(rt.ecall(0, &[], 0).unwrap_err(), EnclaveError::UnknownOcall { index: 9 });
    }

    #[test]
    fn guest_cannot_write_text_pages_by_default() {
        let user = "
.section text
.global overwrite_self
.func overwrite_self
    la   r1, overwrite_self
    movi r2, 0
    st64 r2, [r1]
    movi r0, 0
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["overwrite_self"]);
        match rt.ecall(0, &[], 0).unwrap_err() {
            EnclaveError::Fault(VmFault::AccessViolation { access: Access::Write, .. }) => {}
            other => panic!("expected write violation, got {other:?}"),
        }
    }

    #[test]
    fn guest_cannot_execute_untrusted_memory() {
        let user = "
.section text
.global jump_out
.func jump_out
    li   r1, 0x70000000
    jmpr r1
.endfunc
";
        let mut rt = build_runtime(user, &["jump_out"]);
        match rt.ecall(0, &[], 0).unwrap_err() {
            EnclaveError::Fault(VmFault::AccessViolation { access: Access::Execute, .. }) => {}
            other => panic!("expected execute violation, got {other:?}"),
        }
    }

    #[test]
    fn guest_can_access_untrusted_data() {
        // Reads a value the host placed outside the marshal protocol.
        let user = "
.section text
.global peek
.func peek
    li   r1, 0x70000800
    ld64 r0, [r1]
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["peek"]);
        rt.untrusted_mut().write(0x7000_0800, &0xDEAD_BEEFu64.to_le_bytes()).unwrap();
        assert_eq!(rt.ecall(0, &[], 0).unwrap().status, 0xDEAD_BEEF);
    }

    #[test]
    fn sha256_intrinsic_matches_host() {
        let user = "
.section text
.global hash_input
.func hash_input
    ; r2=in ptr, r3=len, r4=out ptr
    mov  r1, r2
    mov  r2, r3
    mov  r3, r4
    intrin 3
    movi r0, 32
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["hash_input"]);
        let r = rt.ecall(0, b"abc", 32).unwrap();
        assert_eq!(r.status, 32);
        assert_eq!(r.output, Sha256::digest(b"abc").to_vec());
    }

    #[test]
    fn aesgcm_intrinsics_roundtrip_in_guest() {
        // Guest encrypts then decrypts a message held in enclave bss.
        let user = "
.section text
.global gcm_demo
.func gcm_demo
    ; encrypt: key, iv, src, len, dst
    la   r1, key
    la   r2, iv
    la   r3, msg
    movi r4, 16
    la   r5, ctbuf
    intrin 2
    ; decrypt back into ptbuf
    la   r1, key
    la   r2, iv
    la   r3, ctbuf
    movi r4, 16
    la   r5, ptbuf
    intrin 1
    movi r6, 0
    bne  r0, r6, .fail
    ; compare
    la   r1, msg
    la   r2, ptbuf
    movi r3, 16
    call elide_memcmp
    ret
.fail:
    movi r0, 99
    ret
.endfunc
.section rodata
key: .byte 1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1
iv:  .byte 2,2,2,2,2,2,2,2,2,2,2,2
msg: .ascii \"sixteen byte msg\"
.section bss
ctbuf: .zero 32
ptbuf: .zero 16
";
        let mut rt = build_runtime(user, &["gcm_demo"]);
        let r = rt.ecall(0, &[], 0).unwrap();
        assert_eq!(r.status, 0, "plaintext should roundtrip");
    }

    #[test]
    fn egetkey_is_stable_within_enclave() {
        let user = "
.section text
.global get_seal_key
.func get_seal_key
    ; write seal key twice into out buffer
    movi r1, 0
    mov  r2, r4
    intrin 4
    movi r1, 0
    addi r2, r4, 16
    intrin 4
    movi r0, 32
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["get_seal_key"]);
        let r = rt.ecall(0, &[], 32).unwrap();
        assert_eq!(&r.output[..16], &r.output[16..32]);
        assert_ne!(&r.output[..16], &[0u8; 16]);
    }

    #[test]
    fn fuel_budget_enforced() {
        let user = ".section text\n.global spin\n.func spin\n.l:\n    jmp .l\n.endfunc\n";
        let mut rt = build_runtime(user, &["spin"]);
        rt.fuel = 1000;
        assert_eq!(rt.ecall(0, &[], 0).unwrap_err(), EnclaveError::Fault(VmFault::OutOfFuel));
    }

    #[test]
    fn fuel_budget_spans_ocall_resumes() {
        // 600 iterations of (ocall + 2 instructions): every run segment is
        // tiny, but the whole ecall retires well over 1000 instructions, so
        // a per-ecall budget of 1000 must still trip.
        let user = "
.section text
.global chatty
.func chatty
    movi r3, 600
    movi r4, 0
.l:
    ocall 3
    addi r3, r3, -1
    bne  r3, r4, .l
    movi r0, 7
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["chatty"]);
        rt.register_ocall(3, Box::new(|_regs, _mem| Ok(())));
        rt.fuel = 1000;
        assert_eq!(rt.ecall(0, &[], 0).unwrap_err(), EnclaveError::Fault(VmFault::OutOfFuel));
        // With a budget that covers the whole ecall it completes, and the
        // retired counter reflects the full cost.
        rt.fuel = DEFAULT_FUEL;
        let r = rt.ecall(0, &[], 0).unwrap();
        assert_eq!(r.status, 7);
        assert!(r.instructions > 1800, "retired {} across resumes", r.instructions);
        assert!(rt.retired_total() > r.instructions);
    }

    #[test]
    fn ecalls_survive_a_tight_epc_budget() {
        // A workload whose code, stack and data straddle several pages,
        // run under a cap far below the image's page count: every access
        // class (load, store, fetch, superblock entry) must transparently
        // reload evicted pages and produce identical results.
        let user = "
.section text
.global sum_table
.func sum_table
    la   r1, table
    movi r2, 512
    movi r0, 0
    movi r5, 0
.l:
    ld64 r3, [r1]
    add  r0, r0, r3
    st64 r0, [r1]
    addi r1, r1, 8
    addi r2, r2, -1
    bne  r2, r5, .l
    ret
.endfunc
.section data
table: .zero 4096
";
        let mut rt = build_runtime(user, &["sum_table"]);
        let baseline = rt.ecall(0, &[], 0).unwrap();

        let mut rt2 = build_runtime(user, &["sum_table"]);
        let total_pages = rt2.enclave().resident_pages().len();
        let mut rng = SeededRandom::new(3);
        let evicted = rt2.set_epc_budget(EpcBudget::new(2, &mut rng)).unwrap();
        assert!(evicted > 0, "cap of 2 must evict some of the {total_pages} pages");
        for _ in 0..3 {
            let r = rt2.ecall(0, &[], 0).unwrap();
            assert_eq!(r.status, baseline.status);
        }
        let stats = rt2.epc_budget().unwrap().stats();
        assert!(stats.reloads > 0, "budgeted run must have paged: {stats:?}");
        assert_eq!(stats.reload_failures, 0);
        assert!(rt2.enclave().resident_reg_pages() <= 2, "cap must hold after the run");
    }

    #[test]
    fn bulk_memcpy_intrinsic_copies_and_charges_fuel() {
        // Copies input to output with a single MEMCPY intrinsic; fuel is
        // charged per 8-byte word moved, so the retired count must grow by
        // exactly the bulk-fuel delta when only the length changes.
        let user = "
.section text
.global bulk_echo
.func bulk_echo
    ; r2=in, r3=len, r4=out
    mov  r1, r4
    mov  r5, r3
    intrin 9
    mov  r0, r5
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["bulk_echo"]);
        let data: Vec<u8> = (0..2048u32).map(|i| (i as u8).wrapping_mul(7)).collect();
        let small = rt.ecall(0, &data[..64], 64).unwrap();
        assert_eq!(&small.output[..], &data[..64]);
        let big = rt.ecall(0, &data, 2048).unwrap();
        assert_eq!(big.status, 2048);
        assert_eq!(&big.output[..], &data[..]);
        assert_eq!(
            big.instructions - small.instructions,
            bulk_fuel(2048) - bulk_fuel(64),
            "retired fuel must scale with bytes moved"
        );
    }

    #[test]
    fn bulk_memset_and_memcmp_intrinsics_work_in_guest() {
        // Fills the output area with 0x5A, then proves MEMCMP sees the two
        // freshly filled halves as equal and detects a one-byte flip.
        let user = "
.section text
.global fill_cmp
.func fill_cmp
    ; r4=out (256 bytes)
    mov  r1, r4
    movi r2, 0x5A
    movi r3, 256
    intrin 10
    mov  r1, r4
    addi r2, r4, 128
    movi r3, 128
    intrin 11
    mov  r5, r0
    ; flip one byte in the second half, compare again
    movi r2, 0x5B
    addi r1, r4, 200
    movi r3, 1
    intrin 10
    mov  r1, r4
    addi r2, r4, 128
    movi r3, 128
    intrin 11
    ; status = equal-before | differ-after<<1
    shli r0, r0, 1
    or   r0, r0, r5
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["fill_cmp"]);
        let r = rt.ecall(0, &[], 256).unwrap();
        assert_eq!(r.status, 0b10, "halves equal after fill, unequal after flip");
        let mut expect = vec![0x5Au8; 256];
        expect[200] = 0x5B;
        assert_eq!(r.output, expect);
    }

    #[test]
    fn sha256_compress_intrinsic_matches_host() {
        // Input: [state 8×u32 LE][block 64B]; the guest compresses in place
        // and copies the updated state out.
        let user = "
.section text
.global comp
.func comp
    ; r2=in, r4=out
    mov  r1, r2
    addi r2, r2, 32
    intrin 12
    mov  r2, r1
    mov  r1, r4
    movi r3, 32
    intrin 9
    movi r0, 32
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["comp"]);
        let mut state: [u32; 8] = [
            0x6A09_E667,
            0xBB67_AE85,
            0x3C6E_F372,
            0xA54F_F53A,
            0x510E_527F,
            0x9B05_688C,
            0x1F83_D9AB,
            0x5BE0_CD19,
        ];
        let block: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(3));
        let mut input = Vec::new();
        for w in state {
            input.extend_from_slice(&w.to_le_bytes());
        }
        input.extend_from_slice(&block);
        let r = rt.ecall(0, &input, 32).unwrap();
        Sha256::compress(&mut state, &block);
        let expect: Vec<u8> = state.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(r.output, expect);
    }

    fn bulk_fault(body: &str) -> EnclaveError {
        let user = format!(".section text\n.global f\n.func f\n{body}    ret\n.endfunc\n");
        let mut rt = build_runtime(&user, &["f"]);
        rt.ecall(0, &[], 0).unwrap_err()
    }

    #[test]
    fn bulk_intrinsic_bad_args_fault_typed() {
        // Zero length, overlapping copy, oversized length and wrapping
        // ranges all land in BadBulkArgs — never a panic, never a partial
        // write.
        let zero_memset =
            "    li   r1, 0x70000800\n    movi r2, 0\n    movi r3, 0\n    intrin 10\n";
        assert_eq!(
            bulk_fault(zero_memset),
            EnclaveError::Fault(VmFault::BadBulkArgs { index: 10 })
        );

        let zero_memcmp =
            "    li   r1, 0x70000800\n    mov  r2, r1\n    movi r3, 0\n    intrin 11\n";
        assert_eq!(
            bulk_fault(zero_memcmp),
            EnclaveError::Fault(VmFault::BadBulkArgs { index: 11 })
        );

        let overlap_memcpy =
            "    li   r1, 0x70000800\n    addi r2, r1, 8\n    movi r3, 64\n    intrin 9\n";
        assert_eq!(
            bulk_fault(overlap_memcpy),
            EnclaveError::Fault(VmFault::BadBulkArgs { index: 9 })
        );

        let oversized =
            "    li   r1, 0x70000800\n    mov  r2, r1\n    li   r3, 0x10000001\n    intrin 11\n";
        assert_eq!(bulk_fault(oversized), EnclaveError::Fault(VmFault::BadBulkArgs { index: 11 }));

        let wrapping =
            "    li   r1, 0xFFFFFFFFFFFFF000\n    movi r2, 0\n    li   r3, 0x2000\n    intrin 10\n";
        assert_eq!(bulk_fault(wrapping), EnclaveError::Fault(VmFault::BadBulkArgs { index: 10 }));
    }

    #[test]
    fn bulk_memcpy_respects_os_readonly_ranges() {
        // Text pages are write-revoked; an intrinsic store into them must
        // reject the same way st64 does — the bulk path cannot be a bypass.
        let user = "
.section text
.global poke
.func poke
    la   r1, poke
    movi r2, 0x41
    movi r3, 64
    intrin 10
    ret
.endfunc
";
        let mut rt = build_runtime(user, &["poke"]);
        match rt.ecall(0, &[], 0).unwrap_err() {
            EnclaveError::Fault(VmFault::AccessViolation { access: Access::Write, .. }) => {}
            other => panic!("expected write violation, got {other:?}"),
        }
    }

    #[test]
    fn bulk_intrinsics_page_evicted_memory_back_in() {
        // MEMCPY between two enclave data buffers under a 2-page EPC cap:
        // the source and destination pages are evicted between ecalls and
        // must transparently reload mid-copy.
        let user = "
.section text
.global shuffle
.func shuffle
    la   r1, dstbuf
    la   r2, srcbuf
    li   r3, 4096
    intrin 9
    la   r1, dstbuf
    ld64 r0, [r1]
    ret
.endfunc
.section data
srcbuf: .quad 0x1122334455667788
    .zero 4088
dstbuf: .zero 4096
";
        let mut rt = build_runtime(user, &["shuffle"]);
        let baseline = rt.ecall(0, &[], 0).unwrap();
        assert_eq!(baseline.status, 0x1122_3344_5566_7788);

        let mut rt2 = build_runtime(user, &["shuffle"]);
        let mut rng = SeededRandom::new(5);
        rt2.set_epc_budget(EpcBudget::new(2, &mut rng)).unwrap();
        for _ in 0..3 {
            let r = rt2.ecall(0, &[], 0).unwrap();
            assert_eq!(r.status, baseline.status);
        }
        let stats = rt2.epc_budget().unwrap().stats();
        assert!(stats.reloads > 0, "budgeted run must have paged: {stats:?}");
        assert_eq!(stats.reload_failures, 0);
    }

    #[test]
    fn os_readonly_ranges_coalesce() {
        let user = ".section text\n.global f\n.func f\n    ret\n.endfunc\n";
        let mut rt = build_runtime(user, &["f"]);
        rt.os_revoke_write(0x1000, 0x1000);
        rt.os_revoke_write(0x4000, 0x1000);
        assert_eq!(rt.os_readonly_ranges(), &[(0x1000, 0x2000), (0x4000, 0x5000)]);
        // Overlapping both: everything merges into one range.
        rt.os_revoke_write(0x1800, 0x3000);
        assert_eq!(rt.os_readonly_ranges(), &[(0x1000, 0x5000)]);
        // Re-protecting an already covered range changes nothing.
        rt.os_revoke_write(0x2000, 0x100);
        assert_eq!(rt.os_readonly_ranges(), &[(0x1000, 0x5000)]);
        // Abutting ranges merge too.
        rt.os_revoke_write(0x5000, 0x1000);
        assert_eq!(rt.os_readonly_ranges(), &[(0x1000, 0x6000)]);
        // Zero-length requests are ignored.
        rt.os_revoke_write(0x9000, 0);
        assert_eq!(rt.os_readonly_ranges(), &[(0x1000, 0x6000)]);
    }
}
