//! The untrusted enclave loader and the offline signing tool.
//!
//! Loading replays the architectural sequence: `ECREATE` over the image's
//! span, `EADD` of each segment page with permissions taken from the ELF
//! program header `p_flags` (this is where the sanitizer's `PF_W` patch
//! takes effect), 16 `EEXTEND`s per page, then `EINIT` against the vendor's
//! SIGSTRUCT.
//!
//! [`sign_enclave`] replays the identical measurement offline to produce the
//! SIGSTRUCT — the `sgx_sign` analog.

use crate::error::EnclaveError;
use elide_crypto::rsa::RsaKeyPair;
use elide_elf::types::{PF_R, PF_W, PF_X, PT_LOAD};
use elide_elf::{ElfError, ElfFile};
use sgx_sim::epc::{PagePerms, PageType, PAGE_SIZE};
use sgx_sim::measure::{Measurement, EEXTEND_CHUNK};
use sgx_sim::sigstruct::SigStruct;
use sgx_sim::{Enclave, SgxCpu};

/// One page scheduled for `EADD`, derived from a loadable segment.
struct PagePlan {
    vaddr: u64,
    data: [u8; PAGE_SIZE as usize],
    perms: PagePerms,
}

fn perms_from_flags(p_flags: u32) -> PagePerms {
    let mut bits = 0u8;
    if p_flags & PF_R != 0 {
        bits |= 1;
    }
    if p_flags & PF_W != 0 {
        bits |= 2;
    }
    if p_flags & PF_X != 0 {
        bits |= 4;
    }
    PagePerms::from_bits(bits)
}

/// Computes the page plan and ELRANGE for an image. Deterministic, shared by
/// the loader and the signer so their measurements can never diverge.
///
/// Every header field used here is attacker-supplied: a corrupt image must
/// fail with a typed error, never a slice panic, an overflow, or an
/// allocation sized by a forged `p_memsz`.
fn plan_pages(elf: &ElfFile) -> Result<(u64, u64, Vec<PagePlan>), EnclaveError> {
    // Generous caps — orders of magnitude above any image this toolchain
    // produces — that bound both the address arithmetic and the plan size.
    const MAX_SEGMENT_VADDR: u64 = 1 << 48;
    const MAX_IMAGE_PAGES: u64 = 1 << 16; // 256 MiB of 4 KiB pages
    let mut plans = Vec::new();
    let mut min = u64::MAX;
    let mut max = 0u64;
    let mut total_pages = 0u64;
    for seg in elf.segments() {
        if seg.p_type != PT_LOAD {
            continue;
        }
        if seg.p_vaddr > MAX_SEGMENT_VADDR || seg.p_filesz > seg.p_memsz {
            return Err(EnclaveError::Elf(ElfError::Unsupported { what: "segment layout" }));
        }
        let pages = seg.p_memsz.div_ceil(PAGE_SIZE);
        total_pages += pages;
        if total_pages > MAX_IMAGE_PAGES {
            return Err(EnclaveError::Elf(ElfError::Unsupported { what: "image size" }));
        }
        let file_end = seg
            .p_offset
            .checked_add(seg.p_filesz)
            .filter(|&end| end <= elf.bytes().len() as u64)
            .ok_or(EnclaveError::Elf(ElfError::Truncated { what: "segment data" }))?;
        min = min.min(seg.p_vaddr);
        max = max.max(seg.p_vaddr + seg.p_memsz);
        let perms = perms_from_flags(seg.p_flags);
        let file_data = &elf.bytes()[seg.p_offset as usize..file_end as usize];
        for p in 0..pages {
            let mut data = [0u8; PAGE_SIZE as usize];
            let start = (p * PAGE_SIZE) as usize;
            if start < file_data.len() {
                let take = (file_data.len() - start).min(PAGE_SIZE as usize);
                data[..take].copy_from_slice(&file_data[start..start + take]);
            }
            plans.push(PagePlan { vaddr: seg.p_vaddr + p * PAGE_SIZE, data, perms });
        }
    }
    if plans.is_empty() {
        return Err(EnclaveError::MissingSymbol("no loadable segments".into()));
    }
    let base = min & !(PAGE_SIZE - 1);
    let size = (max - base).div_ceil(PAGE_SIZE) * PAGE_SIZE;
    Ok((base, size, plans))
}

/// Computes the MRENCLAVE the hardware will measure for `image`.
///
/// # Errors
///
/// Returns [`EnclaveError::Elf`] for malformed images.
pub fn measure_enclave(image: &[u8]) -> Result<[u8; 32], EnclaveError> {
    let elf = ElfFile::parse(image.to_vec())?;
    let (base, size, plans) = plan_pages(&elf)?;
    Ok(measure(base, size, &plans))
}

/// The MRENCLAVE the architectural `ECREATE`/`EADD`/`EEXTEND` sequence
/// computes over `plans` in an enclave of `size` bytes at `base`.
fn measure(base: u64, size: u64, plans: &[PagePlan]) -> [u8; 32] {
    let mut m = Measurement::ecreate(size);
    for page in plans {
        let off = page.vaddr - base;
        m.eadd(off, page.perms, PageType::Reg);
        // Chunks are borrowed straight from the page plan — no staging copy.
        for (c, chunk) in page.data.chunks_exact(EEXTEND_CHUNK).enumerate() {
            m.eextend(off + (c * EEXTEND_CHUNK) as u64, chunk.try_into().expect("256-byte chunk"));
        }
    }
    m.finalize()
}

/// Signs an enclave image: measures it offline and wraps the measurement in
/// a SIGSTRUCT under the vendor key (the `sgx_sign` analog).
///
/// # Errors
///
/// Returns [`EnclaveError::Elf`] for malformed images; signing errors
/// surface as [`EnclaveError::Sgx`]-level failures cannot occur here.
pub fn sign_enclave(
    image: &[u8],
    vendor: &RsaKeyPair,
    product_id: u16,
    svn: u16,
) -> Result<SigStruct, EnclaveError> {
    let measurement = measure_enclave(image)?;
    SigStruct::sign(vendor, measurement, product_id, svn)
        .map_err(|_| EnclaveError::Sgx(sgx_sim::SgxError::BadSigstruct))
}

/// An enclave loaded and initialized from an ELF image, with the metadata
/// the runtime needs to enter it.
#[derive(Debug)]
pub struct LoadedEnclave {
    /// The initialized enclave.
    pub enclave: Enclave,
    /// Entry point (`e_entry`).
    pub entry: u64,
    /// Initial stack pointer (`__stack_top`).
    pub stack_top: u64,
}

/// A pre-parsed, page-granular load plan for one image: the ELF walk and
/// page staging happen once, so repeated loads of the same image — the
/// warm-start path, and the enclave pool cycling instances in and out —
/// skip straight to the architectural `ECREATE`/`EADD`/`EEXTEND`/`EINIT`
/// sequence.
pub struct ImagePlan {
    base: u64,
    size: u64,
    entry: u64,
    stack_top: u64,
    plans: Vec<PagePlan>,
    /// MRENCLAVE of this exact page set, measured once at plan time. Loads
    /// replay the pages unmeasured and `EINIT` against this cached digest
    /// (see [`sgx_sim::Enclave::einit_measured`]) — the page contents are
    /// immutable in `plans`, so re-hashing them per load would recompute
    /// the same value.
    mrenclave: [u8; 32],
}

impl std::fmt::Debug for ImagePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImagePlan")
            .field("base", &format_args!("{:#x}", self.base))
            .field("size", &self.size)
            .field("pages", &self.plans.len())
            .finish_non_exhaustive()
    }
}

impl ImagePlan {
    /// Parses `image` and stages its pages.
    ///
    /// # Errors
    ///
    /// * [`EnclaveError::Elf`] — malformed image.
    /// * [`EnclaveError::MissingSymbol`] — no `__stack_top` (not linked
    ///   against the tRTS).
    pub fn new(image: &[u8]) -> Result<Self, EnclaveError> {
        let elf = ElfFile::parse(image.to_vec())?;
        let entry = elf.header().e_entry;
        let stack_top = elf
            .symbol_by_name("__stack_top")
            .map(|s| s.value)
            .ok_or_else(|| EnclaveError::MissingSymbol("__stack_top".into()))?;
        let (base, size, plans) = plan_pages(&elf)?;
        let mrenclave = measure(base, size, &plans);
        Ok(ImagePlan { base, size, entry, stack_top, plans, mrenclave })
    }

    /// Number of pages the image `EADD`s — the denominator of an EPC
    /// oversubscription factor.
    pub fn pages(&self) -> usize {
        self.plans.len()
    }

    /// MRENCLAVE of this page set (what every load of the plan measures).
    pub fn mrenclave(&self) -> [u8; 32] {
        self.mrenclave
    }

    /// Replays the load sequence on `cpu` via the snapshot fast path:
    /// `ECREATE`, unmeasured `EADD` of the staged pages, then `EINIT`
    /// against the digest measured once at plan time — repeated loads
    /// (warm starts, pool cycling) skip the per-chunk `EEXTEND` hashing
    /// that otherwise dominates launch latency.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::Sgx`] — `EINIT` rejected the SIGSTRUCT, e.g.
    /// because the image was modified after signing.
    pub fn load(&self, cpu: &SgxCpu, sigstruct: &SigStruct) -> Result<LoadedEnclave, EnclaveError> {
        let mut enclave = cpu.ecreate(self.base, self.size)?;
        for page in &self.plans {
            enclave.eadd_unmeasured(page.vaddr, &page.data, page.perms, PageType::Reg)?;
        }
        enclave.einit_measured(sigstruct, self.mrenclave)?;
        Ok(LoadedEnclave { enclave, entry: self.entry, stack_top: self.stack_top })
    }
}

/// Loads `image` into a fresh enclave on `cpu` and initializes it against
/// `sigstruct`.
///
/// # Errors
///
/// * [`EnclaveError::Elf`] — malformed image.
/// * [`EnclaveError::MissingSymbol`] — no `__stack_top` (not linked against
///   the tRTS).
/// * [`EnclaveError::Sgx`] — `EINIT` rejected the SIGSTRUCT, e.g. because
///   the image was modified after signing.
pub fn load_enclave(
    cpu: &SgxCpu,
    image: &[u8],
    sigstruct: &SigStruct,
) -> Result<LoadedEnclave, EnclaveError> {
    ImagePlan::new(image)?.load(cpu, sigstruct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trts::{ecall_table_asm, TRTS_ASM};
    use elide_crypto::rng::SeededRandom;
    use elide_vm::asm::assemble_all;
    use elide_vm::link::{link, LinkOptions};

    fn build_image() -> Vec<u8> {
        let user =
            ".section text\n.global hello\n.func hello\n    movi r0, 123\n    ret\n.endfunc\n";
        let table = ecall_table_asm(&["hello"]);
        let objs = assemble_all([TRTS_ASM, user, table.as_str()]).unwrap();
        link(&objs, &LinkOptions::default()).unwrap()
    }

    #[test]
    fn sign_and_load_roundtrip() {
        let mut rng = SeededRandom::new(1);
        let cpu = SgxCpu::new(&mut rng);
        let vendor = RsaKeyPair::generate(512, &mut rng);
        let image = build_image();
        let sig = sign_enclave(&image, &vendor, 1, 1).unwrap();
        let loaded = load_enclave(&cpu, &image, &sig).unwrap();
        assert!(loaded.enclave.is_initialized());
        assert_eq!(loaded.enclave.mrenclave(), sig.measurement);
        assert_ne!(loaded.entry, 0);
        assert_ne!(loaded.stack_top, 0);
    }

    #[test]
    fn modified_image_fails_einit() {
        let mut rng = SeededRandom::new(1);
        let cpu = SgxCpu::new(&mut rng);
        let vendor = RsaKeyPair::generate(512, &mut rng);
        let image = build_image();
        let sig = sign_enclave(&image, &vendor, 1, 1).unwrap();
        let mut tampered = image.clone();
        // Flip a byte inside .text (segments start at 0x1000 in our layout).
        let elf = ElfFile::parse(image.clone()).unwrap();
        let text = elf.section_by_name(".text").unwrap();
        tampered[text.sh_offset as usize] ^= 0xFF;
        let err = load_enclave(&cpu, &tampered, &sig).unwrap_err();
        assert!(matches!(err, EnclaveError::Sgx(sgx_sim::SgxError::MeasurementMismatch { .. })));
    }

    #[test]
    fn corrupt_program_headers_fail_typed_not_panic() {
        // Regression (found by the chaos fuzz): forged p_offset/p_filesz
        // panicked the page-plan slice, and a forged p_memsz sized an
        // allocation. Each field forged in every program header must yield
        // a typed error.
        let image = build_image();
        let elf = ElfFile::parse(image.clone()).unwrap();
        let phoff = elf.header().e_phoff as usize;
        let phnum = elf.header().e_phnum as usize;
        // Offsets of p_offset / p_filesz / p_memsz within an ELF64 phdr.
        for field in [8usize, 32, 40] {
            let mut bad = image.clone();
            for entry in 0..phnum {
                let at = phoff + entry * 56 + field;
                bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            }
            let err = measure_enclave(&bad).unwrap_err();
            assert!(matches!(err, EnclaveError::Elf(_)), "phdr field +{field}: {err:?}");
        }
    }

    #[test]
    fn measurement_is_deterministic_and_content_sensitive() {
        let image = build_image();
        assert_eq!(measure_enclave(&image).unwrap(), measure_enclave(&image).unwrap());
        let user2 =
            ".section text\n.global hello\n.func hello\n    movi r0, 124\n    ret\n.endfunc\n";
        let table = ecall_table_asm(&["hello"]);
        let objs = assemble_all([TRTS_ASM, user2, table.as_str()]).unwrap();
        let image2 = link(&objs, &LinkOptions::default()).unwrap();
        assert_ne!(measure_enclave(&image).unwrap(), measure_enclave(&image2).unwrap());
    }

    #[test]
    fn text_pages_loaded_rx_by_default() {
        let mut rng = SeededRandom::new(1);
        let cpu = SgxCpu::new(&mut rng);
        let vendor = RsaKeyPair::generate(512, &mut rng);
        let image = build_image();
        let sig = sign_enclave(&image, &vendor, 1, 1).unwrap();
        let loaded = load_enclave(&cpu, &image, &sig).unwrap();
        let elf = ElfFile::parse(image).unwrap();
        let text = elf.section_by_name(".text").unwrap();
        let perms = loaded.enclave.page_perms(text.sh_addr).unwrap();
        assert!(perms.executable() && !perms.writable());
        let bss = elf.section_by_name(".bss").unwrap();
        let perms = loaded.enclave.page_perms(bss.sh_addr).unwrap();
        assert!(perms.writable() && !perms.executable());
    }
}
