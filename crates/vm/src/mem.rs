//! The memory bus abstraction both engines execute against, and the fault
//! model.
//!
//! The enclave runtime implements [`Bus`] over EPC pages with SGX permission
//! semantics (reads/writes/fetches are checked against the page permissions
//! fixed at `EADD`); unit tests use the permissionless [`FlatMemory`].

use std::fmt;

/// Size of a code page as the superblock engine's code cache holds it: the
/// unit of one fetch, one decode and one generation. Matches the EPC page
/// size so one execute-permission check covers one EPC page.
pub const CODE_PAGE_SIZE: u64 = 4096;

/// The kind of memory access that faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Read => write!(f, "read"),
            Access::Write => write!(f, "write"),
            Access::Execute => write!(f, "execute"),
        }
    }
}

/// Faults raised during execution (the AEX analog: execution stops and the
/// host sees the fault; enclave state is not exposed).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmFault {
    /// Fetched bytes did not decode to a valid instruction — this is what
    /// happens when control reaches a sanitized (zeroed) function.
    IllegalInstruction {
        /// Address of the offending instruction.
        addr: u64,
    },
    /// An access violated page permissions (e.g. a store to non-writable
    /// text when the sanitizer did not set `PF_W`).
    AccessViolation {
        /// Faulting address.
        addr: u64,
        /// Access kind.
        access: Access,
    },
    /// An access touched unmapped memory.
    Unmapped {
        /// Faulting address.
        addr: u64,
        /// Access kind.
        access: Access,
    },
    /// Unsigned division or remainder by zero.
    DivideByZero {
        /// Address of the dividing instruction.
        addr: u64,
    },
    /// The fuel budget was exhausted (runaway guest protection).
    OutOfFuel,
    /// An intrinsic was invoked with an unknown number or bad arguments.
    BadIntrinsic {
        /// The intrinsic index.
        index: i32,
    },
    /// A bulk intrinsic (`MEMCPY`/`MEMSET`/`MEMCMP`/...) was invoked with
    /// malformed range arguments: zero length, a length over the bulk cap,
    /// a range that wraps the address space, or overlapping source and
    /// destination where overlap is forbidden.
    BadBulkArgs {
        /// The intrinsic index.
        index: i32,
    },
}

impl fmt::Display for VmFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmFault::IllegalInstruction { addr } => {
                write!(f, "illegal instruction at {addr:#x}")
            }
            VmFault::AccessViolation { addr, access } => {
                write!(f, "permission denied for {access} at {addr:#x}")
            }
            VmFault::Unmapped { addr, access } => {
                write!(f, "{access} of unmapped address {addr:#x}")
            }
            VmFault::DivideByZero { addr } => write!(f, "division by zero at {addr:#x}"),
            VmFault::OutOfFuel => write!(f, "instruction budget exhausted"),
            VmFault::BadIntrinsic { index } => write!(f, "bad intrinsic invocation {index}"),
            VmFault::BadBulkArgs { index } => {
                write!(f, "bad bulk-intrinsic arguments for intrinsic {index}")
            }
        }
    }
}

impl std::error::Error for VmFault {}

/// Memory bus both execution engines run against. All accesses may fault.
pub trait Bus {
    /// Loads `size` bytes (1, 2, 4 or 8) little-endian, zero-extended.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses or insufficient permissions.
    fn load(&mut self, addr: u64, size: usize) -> Result<u64, VmFault>;

    /// Stores the low `size` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses or insufficient permissions.
    fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), VmFault>;

    /// Fetches 8 instruction bytes (requires execute permission): the
    /// interpreter's one source of instructions, called for every one.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses or non-executable pages.
    fn fetch(&mut self, addr: u64) -> Result<[u8; 8], VmFault>;

    /// Services an `intrin` instruction. The default faults; buses that
    /// model an enclave override this with the trusted runtime services
    /// (SDK crypto, `EGETKEY`, `EREPORT`, bulk memory ops, ...).
    ///
    /// Returns the *extra* fuel the intrinsic consumed beyond the `intrin`
    /// instruction itself. Fixed-cost service intrinsics return 0; bulk
    /// intrinsics return a charge proportional to the bytes they moved so
    /// `retired`/fuel accounting stays meaningful.
    ///
    /// # Errors
    ///
    /// Returns a fault to abort the guest.
    fn intrinsic(
        &mut self,
        index: i32,
        _regs: &mut [u64; crate::isa::NUM_REGS],
    ) -> Result<u64, VmFault> {
        Err(VmFault::BadIntrinsic { index })
    }

    /// Generation stamp of the executable code page containing `page_addr`
    /// (which is [`CODE_PAGE_SIZE`]-aligned), or `None` if the bus does not
    /// support page-granular execution for this page: the superblock engine
    /// then has the interpreter fetch instruction by instruction, and takes
    /// over again on the first aligned pc of a page that probes `Some`.
    ///
    /// A `Some(g)` result is a promise: as long as later calls keep
    /// returning `g`, neither the bytes nor the execute permission of the
    /// page have changed, so the code cache may serve the page's decoded
    /// instructions and the blocks lowered from them without touching the
    /// bus. Any write reaching the page, and any mapping change (page
    /// eviction/restore), must move the generation — this is the
    /// simulator's icache-coherence contract. The interpreter never calls
    /// this: it fetches every instruction.
    fn exec_page_generation(&mut self, page_addr: u64) -> Option<u64> {
        let _ = page_addr;
        None
    }

    /// A counter that moves whenever the generation of any executable page
    /// moves: a store or host write to an executable page, and any
    /// eviction or reload of one. While it holds still, every generation
    /// [`Bus::exec_page_generation`] reported since is still current, so
    /// the superblock engine may chain across pages without probing them.
    ///
    /// `None` (the default) promises nothing: the engine then probes every
    /// page it enters. A bus returns `None` wherever page entries must stay
    /// visible to it — for instance to page code in or to order pages by
    /// recency.
    fn code_epoch(&mut self) -> Option<u64> {
        None
    }

    /// Copies the whole aligned code page at `page_addr` into `buf`,
    /// checking execute permission once for the entire page, and returns
    /// its generation stamp. Only called for pages where
    /// [`Bus::exec_page_generation`] returned `Some`, by the code cache,
    /// once per page generation: the page is decoded from this copy.
    ///
    /// # Errors
    ///
    /// Faults if the page is unmapped or not executable.
    fn fetch_exec_page(
        &mut self,
        page_addr: u64,
        buf: &mut [u8; CODE_PAGE_SIZE as usize],
    ) -> Result<u64, VmFault> {
        let _ = buf;
        Err(VmFault::Unmapped { addr: page_addr, access: Access::Execute })
    }

    /// Bulk read used by intrinsics; default loops over byte loads.
    ///
    /// # Errors
    ///
    /// Propagates the first faulting byte access.
    fn read_bytes(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, VmFault> {
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            out.push(self.load(addr + i as u64, 1)? as u8);
        }
        Ok(out)
    }

    /// Bulk write used by intrinsics; default loops over byte stores.
    ///
    /// # Errors
    ///
    /// Propagates the first faulting byte access.
    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), VmFault> {
        for (i, &b) in data.iter().enumerate() {
            self.store(addr + i as u64, 1, b as u64)?;
        }
        Ok(())
    }
}

/// Fixed-width little-endian read of `size` bytes (1/2/4/8) from the front
/// of `d`, zero-extended: one constant-length copy per width instead of a
/// runtime-length `memcpy`, for buses serving guest loads from a flat byte
/// array.
#[inline]
pub fn read_le_prim(d: &[u8], size: usize) -> u64 {
    match size {
        1 => d[0] as u64,
        2 => u16::from_le_bytes([d[0], d[1]]) as u64,
        4 => u32::from_le_bytes([d[0], d[1], d[2], d[3]]) as u64,
        8 => u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]),
        _ => {
            let mut v = 0u64;
            for (i, &b) in d[..size].iter().enumerate() {
                v |= (b as u64) << (8 * i);
            }
            v
        }
    }
}

/// Fixed-width little-endian write of the low `size` bytes of `value`;
/// the store-side mirror of [`read_le_prim`].
#[inline]
pub fn write_le_prim(d: &mut [u8], size: usize, value: u64) {
    let le = value.to_le_bytes();
    match size {
        1 => d[0] = le[0],
        2 => d[..2].copy_from_slice(&le[..2]),
        4 => d[..4].copy_from_slice(&le[..4]),
        8 => d[..8].copy_from_slice(&le[..8]),
        _ => d[..size].copy_from_slice(&le[..size]),
    }
}

/// A flat, fully readable/writable/executable memory region; the test bus.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    base: u64,
    data: Vec<u8>,
    /// Bumped on every write. Every byte of a flat region is executable,
    /// so this is also the bus's code epoch.
    epoch: u64,
    /// Per-page generations, indexed from the page containing `base`: a
    /// write stamps the pages it touches with the new `epoch`.
    gens: Vec<u64>,
}

impl FlatMemory {
    /// Creates a region of `size` zero bytes starting at `base`.
    pub fn new(base: u64, size: usize) -> Self {
        let first = base & !(CODE_PAGE_SIZE - 1);
        let pages = (base - first + size as u64).div_ceil(CODE_PAGE_SIZE);
        FlatMemory { base, data: vec![0; size], epoch: 0, gens: vec![0; pages as usize] }
    }

    /// Copies `bytes` into the region at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (test setup error).
    pub fn write_at(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr - self.base) as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        self.wrote(addr, bytes.len());
    }

    /// Moves the epoch and stamps every page that `len` bytes written at
    /// `addr` touched.
    fn wrote(&mut self, addr: u64, len: usize) {
        self.epoch += 1;
        let first = self.base & !(CODE_PAGE_SIZE - 1);
        let lo = (addr - first) / CODE_PAGE_SIZE;
        let hi = (addr + len.max(1) as u64 - 1 - first) / CODE_PAGE_SIZE;
        for g in &mut self.gens[lo as usize..=hi as usize] {
            *g = self.epoch;
        }
    }

    /// The generation of the page at `page_addr`, which the caller has
    /// checked lies inside the region.
    fn gen(&self, page_addr: u64) -> u64 {
        self.gens[((page_addr - (self.base & !(CODE_PAGE_SIZE - 1))) / CODE_PAGE_SIZE) as usize]
    }

    /// Reads a slice at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (test setup error).
    pub fn read_at(&self, addr: u64, len: usize) -> &[u8] {
        let off = (addr - self.base) as usize;
        &self.data[off..off + len]
    }

    #[inline]
    fn offset(&self, addr: u64, len: usize, access: Access) -> Result<usize, VmFault> {
        let off = addr.checked_sub(self.base).ok_or(VmFault::Unmapped { addr, access })?;
        // `off + len` can wrap for addresses near u64::MAX; that is an
        // Unmapped fault, not a panic.
        let end = off.checked_add(len as u64).ok_or(VmFault::Unmapped { addr, access })?;
        if end > self.data.len() as u64 {
            return Err(VmFault::Unmapped { addr, access });
        }
        Ok(off as usize)
    }
}

impl Bus for FlatMemory {
    #[inline]
    fn load(&mut self, addr: u64, size: usize) -> Result<u64, VmFault> {
        let off = self.offset(addr, size, Access::Read)?;
        // Fixed-width little-endian reads per size: the old byte loop (and
        // equally a runtime-length memcpy) dominated the cost of guest loads.
        Ok(read_le_prim(&self.data[off..], size))
    }

    #[inline]
    fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), VmFault> {
        let off = self.offset(addr, size, Access::Write)?;
        write_le_prim(&mut self.data[off..], size, value);
        self.wrote(addr, size);
        Ok(())
    }

    fn fetch(&mut self, addr: u64) -> Result<[u8; 8], VmFault> {
        let off = self.offset(addr, 8, Access::Execute)?;
        Ok(self.data[off..off + 8].try_into().unwrap())
    }

    fn exec_page_generation(&mut self, page_addr: u64) -> Option<u64> {
        // Cacheable only when the whole page lies inside the region; a
        // partially mapped page falls back to per-instruction fetches so
        // edge faults keep their exact addresses.
        let off = page_addr.checked_sub(self.base)?;
        let end = off.checked_add(CODE_PAGE_SIZE)?;
        if end > self.data.len() as u64 {
            return None;
        }
        Some(self.gen(page_addr))
    }

    fn code_epoch(&mut self) -> Option<u64> {
        Some(self.epoch)
    }

    fn fetch_exec_page(
        &mut self,
        page_addr: u64,
        buf: &mut [u8; CODE_PAGE_SIZE as usize],
    ) -> Result<u64, VmFault> {
        let off = self.offset(page_addr, CODE_PAGE_SIZE as usize, Access::Execute)?;
        buf.copy_from_slice(&self.data[off..off + CODE_PAGE_SIZE as usize]);
        Ok(self.gen(page_addr))
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), VmFault> {
        let off = self.offset(addr, data.len(), Access::Write)?;
        self.data[off..off + data.len()].copy_from_slice(data);
        self.wrote(addr, data.len());
        Ok(())
    }

    /// The bulk memory intrinsics (MEMCPY/MEMSET/MEMCMP), so VM-level
    /// tests can exercise the intrinsic paths — argument validation, fuel
    /// charging, engine parity — without a full enclave world. The crypto
    /// service intrinsics stay unimplemented here.
    fn intrinsic(
        &mut self,
        index: i32,
        regs: &mut [u64; crate::isa::NUM_REGS],
    ) -> Result<u64, VmFault> {
        use crate::isa::intrinsics;
        let check = |addr: u64, len: u64| -> Result<(), VmFault> {
            if len == 0 || len > intrinsics::BULK_MAX || addr.checked_add(len).is_none() {
                return Err(VmFault::BadBulkArgs { index });
            }
            Ok(())
        };
        match index {
            intrinsics::MEMCPY => {
                let (dst, src, len) = (regs[1], regs[2], regs[3]);
                check(dst, len)?;
                check(src, len)?;
                if dst < src + len && src < dst + len {
                    return Err(VmFault::BadBulkArgs { index });
                }
                let s = self.offset(src, len as usize, Access::Read)?;
                let d = self.offset(dst, len as usize, Access::Write)?;
                self.data.copy_within(s..s + len as usize, d);
                self.wrote(dst, len as usize);
                regs[0] = 0;
                Ok(intrinsics::bulk_fuel(len))
            }
            intrinsics::MEMSET => {
                let (dst, byte, len) = (regs[1], regs[2] as u8, regs[3]);
                check(dst, len)?;
                let d = self.offset(dst, len as usize, Access::Write)?;
                self.data[d..d + len as usize].fill(byte);
                self.wrote(dst, len as usize);
                regs[0] = 0;
                Ok(intrinsics::bulk_fuel(len))
            }
            intrinsics::MEMCMP => {
                let (a, b, len) = (regs[1], regs[2], regs[3]);
                check(a, len)?;
                check(b, len)?;
                let ao = self.offset(a, len as usize, Access::Read)?;
                let bo = self.offset(b, len as usize, Access::Read)?;
                let mut diff = 0u8;
                for i in 0..len as usize {
                    diff |= self.data[ao + i] ^ self.data[bo + i];
                }
                regs[0] = u64::from(diff != 0);
                Ok(intrinsics::bulk_fuel(len))
            }
            _ => Err(VmFault::BadIntrinsic { index }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_memory_load_store() {
        let mut m = FlatMemory::new(0x1000, 64);
        m.store(0x1000, 8, 0x0102030405060708).unwrap();
        assert_eq!(m.load(0x1000, 8).unwrap(), 0x0102030405060708);
        assert_eq!(m.load(0x1000, 1).unwrap(), 0x08); // little-endian
        assert_eq!(m.load(0x1004, 4).unwrap(), 0x01020304);
    }

    #[test]
    fn unmapped_faults() {
        let mut m = FlatMemory::new(0x1000, 16);
        assert!(matches!(m.load(0x0, 1), Err(VmFault::Unmapped { .. })));
        assert!(matches!(m.load(0x100F, 8), Err(VmFault::Unmapped { .. })));
        assert!(matches!(m.store(0x2000, 1, 0), Err(VmFault::Unmapped { .. })));
    }

    #[test]
    fn bulk_helpers() {
        let mut m = FlatMemory::new(0, 32);
        m.write_bytes(4, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_bytes(4, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn near_max_address_faults_instead_of_overflowing() {
        // `off + len` used to wrap for addresses near u64::MAX, turning an
        // Unmapped fault into a panic.
        let mut m = FlatMemory::new(0, 4096);
        assert!(matches!(m.load(u64::MAX - 3, 8), Err(VmFault::Unmapped { .. })));
        assert!(matches!(m.store(u64::MAX, 1, 0), Err(VmFault::Unmapped { .. })));
        assert!(matches!(m.fetch(u64::MAX - 7), Err(VmFault::Unmapped { .. })));
        let mut m = FlatMemory::new(u64::MAX - 15, 8);
        assert!(matches!(m.load(u64::MAX - 10, 8), Err(VmFault::Unmapped { .. })));
    }

    #[test]
    fn writes_move_the_epoch() {
        let mut m = FlatMemory::new(0, 4096);
        let g0 = m.exec_page_generation(0).unwrap();
        m.store(16, 8, 7).unwrap();
        let g1 = m.exec_page_generation(0).unwrap();
        assert_ne!(g0, g1);
        m.write_at(0, &[1]);
        assert_ne!(m.exec_page_generation(0).unwrap(), g1);
        // Partially mapped pages are not cacheable.
        let mut small = FlatMemory::new(0, 64);
        assert_eq!(small.exec_page_generation(0), None);
    }

    #[test]
    fn writes_move_only_the_pages_they_touch() {
        let mut m = FlatMemory::new(0x1000, 3 * 4096);
        let [a, b, c] = [0x1000, 0x2000, 0x3000].map(|p| m.exec_page_generation(p).unwrap());
        let e0 = m.code_epoch().unwrap();
        m.store(0x1008, 8, 7).unwrap();
        assert_ne!(m.exec_page_generation(0x1000).unwrap(), a, "written page moves");
        assert_eq!(m.exec_page_generation(0x2000).unwrap(), b, "untouched page stays put");
        assert_eq!(m.exec_page_generation(0x3000).unwrap(), c, "untouched page stays put");
        assert_ne!(m.code_epoch().unwrap(), e0, "every write moves the code epoch");
        // A store straddling a boundary moves both pages it touches.
        m.store(0x2ffc, 8, 7).unwrap();
        assert_ne!(m.exec_page_generation(0x2000).unwrap(), b);
        assert_ne!(m.exec_page_generation(0x3000).unwrap(), c);
    }
}
