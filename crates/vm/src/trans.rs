//! Superblock translation: the execution tier above the interpreter.
//!
//! The interpreter retires one [`Instr`] per trip through its `match`, with
//! a fuel check, a retired-counter bump and a pc update per instruction.
//! This module lowers guest code into **superblocks** — traces along the
//! hot path — and executes them with a token-threaded dispatch over
//! pre-lowered micro-ops:
//!
//! * operand register indices and sign-extended immediates are resolved at
//!   translation time, branch/jump targets are absolute addresses;
//! * common idioms are fused into macro-ops (`movi`+`movhi` constant
//!   synthesis, `la`+`add`+`ld` table lookups, `addi`+`ld` address
//!   generation, `ld`+`xor` mix steps, `ld`+`st` copies, `addi`+branch
//!   loop back-edges), so one dispatch retires several guest instructions;
//! * fuel is accounted **per block**: the whole block cost is charged at
//!   entry, and early exits (faults, self-patching stores) refund the
//!   unexecuted remainder, reconstructing the exact per-instruction fault
//!   address and retired count the interpreter would have produced;
//! * page boundaries shape nothing: a trace lowers from up to
//!   [`MAX_TRACE_PAGES`] pages, and a block exit chains into the next block
//!   on any page while the bus's [`Bus::code_epoch`] vouches that no
//!   executable page changed. A store that hits a page the executing block
//!   lowered is caught *at the store* (the [`BlockExit::Patched`] exit).
//!
//! This is the one code cache. A `TransSlot` per page holds the page's
//! instructions, fetched once ([`Bus::fetch_exec_page`]) and decoded at the
//! generation [`Bus::exec_page_generation`] reports, and the blocks that
//! start there. A moved generation re-decodes the page and drops its
//! blocks, so the sanitize → fault → `elide_restore` → re-execute life
//! cycle needs no extra coherence machinery.
//!
//! Anything the translator cannot prove equivalent — misaligned PCs,
//! uncacheable buses, page-trace mode, fuel slivers smaller than one block
//! — executes instruction by instruction through the interpreter's
//! `Vm::step`, and the translator takes control back as soon as the pc
//! sits aligned on a page the bus offers for page-granular execution.

use crate::interp::{Exit, Vm};
use crate::isa::{Instr, Opcode, INSTR_SIZE, NUM_REGS, REG_SP};
use crate::mem::{Bus, VmFault, CODE_PAGE_SIZE};
use std::collections::HashMap;

const PAGE_MASK: u64 = CODE_PAGE_SIZE - 1;

/// Instruction slots per code page.
const INSTRS_PER_PAGE: usize = (CODE_PAGE_SIZE / INSTR_SIZE) as usize;

/// Lowered micro-op kinds. `T*` kinds are terminators: every block ends
/// with exactly one, and nothing before a terminator transfers control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LKind {
    // Straight-line ops.
    MovR,
    LImm,  // also carries pre-resolved Ldpc results and fused movi+movhi
    MovHi, // imm pre-shifted into the high half
    Add,
    Sub,
    Mul,
    Divu,
    Remu,
    And,
    Or,
    Xor,
    Shl,
    Shru,
    Shrs,
    Rotl32,
    Rotr32,
    Add32,
    Sub32,
    Mul32,
    Addi,
    Andi,
    Ori,
    Xori,
    Shli,  // shift pre-masked
    Shrui, // shift pre-masked
    Shrsi, // shift pre-masked
    Rotl32i,
    Rotr32i,
    Add32i,
    Ld, // size in `sz`
    St, // size in `sz`
    /// A followed `jmp`: retires the jump, control stays inside the trace
    /// (the next op is the jump target's lowering).
    Hop,
    /// A followed `call`: pushes the return address and falls through to
    /// the callee's lowering. Exits via `Patched` if the push hits a page
    /// the block lowered.
    HCall,
    /// A `ret` inside a followed call: pops the return address and, when
    /// it matches the translation-time expectation in `imm` (the guest may
    /// have overwritten the stack slot), falls through to the caller's
    /// continuation; otherwise side-exits to the popped address.
    RetHop,
    // Fused macro-ops.
    LdSt,      // ld a,[b+imm]; st a,[c+aux]
    LdXor,     // ld a,[b+imm]; xor c,c,a
    LdAdd32,   // ld a,[b+imm]; add32 c,c,a
    AddLd,     // add t,b,c; ld a,[t+imm]        (t in sz high nibble)
    AddiLd,    // addi t,b,aux; ld a,[t+imm]     (t in sz high nibble)
    TabLd,     // t = aux; c = aux + r[b]; ld a,[c+imm]   (la+add+ld lookup)
    AddSl,     // u = r[c] << imm; a = r[b] + u  (u in sz high nibble)
    OrSl,      // u = r[c] << imm; a = r[b] | u  (u in sz high nibble)
    SlLd,      // u = r[c] << k; d = r[b] + u; ld a,[d+imm]  (k,u,d in aux)
    ShrAndi,   // a = (r[b] >> imm) & aux      (same-reg shrui+andi)
    ShruAndi,  // a = (r[b] >> (r[c]&63)) & aux (same-reg shru+andi)
    Xor3,      // a = r[b] ^ r[c] ^ r[u]       (u in sz high nibble)
    Add3,      // a = r[b] + r[c] + r[u]       (u in sz high nibble, u≠a)
    Add32_3,   // 32-bit a = b + c + u         (u in sz high nibble, u≠a)
    RotlAdd32, // 32-bit a = rotl(b, imm) + c
    XorSt,     // a = r[b] ^ r[c]; st a,[u+aux] (u in sz high nibble)
    Mov2,      // a = r[b]; c = r[u]           (u in sz high nibble)
    // Side exits: the trace leaves through `imm` when the lowered
    // condition holds, otherwise execution continues with the next op.
    // Backward branches are stored inverted (exit = loop exit), so hot
    // back-edges stay inside the trace and loops unroll up to the cap.
    // `sz` marks a fused pre-op: 1 → addi c,c,aux; 2 → movi c,aux.
    TBeq, // imm = absolute exit target
    TBne,
    TBltu,
    TBgeu,
    TBlts,
    TBges,
    // Terminators.
    TJmp,   // imm = absolute target (a page the trace cannot add)
    TCall,  // imm = absolute target
    TCallr, // target = r[b]
    TRet,
    TJmpr, // target = r[b]
    THalt,
    TOcall,  // imm = ocall index
    TIntrin, // imm = intrinsic index
    TIllegal,
    TFall, // trace cap or an undecodable page; imm = continuation address
}

/// One lowered micro-op. 24 bytes; operands pre-resolved at translation.
#[derive(Debug, Clone, Copy)]
struct LOp {
    kind: LKind,
    a: u8,
    b: u8,
    c: u8,
    /// Where the op's **first** source instruction sits: the index of its
    /// page in the block's [`Pages`] above [`IDX_BITS`], the instruction
    /// index within that page below.
    off: u16,
    /// Guest instructions this op retires (fusion width; 0 for `TFall`).
    retire: u8,
    /// Memory size in the low nibble; fused scratch register in the high.
    sz: u8,
    /// Primary immediate: sign-extended value or absolute target.
    imm: u64,
    /// Secondary immediate for fused ops (pre-addi delta, store offset,
    /// table base).
    aux: u64,
}

/// Bits of [`LOp::off`] that index an instruction within its page.
const IDX_BITS: u32 = INSTRS_PER_PAGE.trailing_zeros();

/// Most distinct pages one trace lowers instructions from. Enough for a
/// loop that straddles a boundary and calls a helper on a third page.
const MAX_TRACE_PAGES: usize = 4;

/// Filler for unused [`Pages`] entries: not page-aligned, so no access
/// ever lands on it.
const NO_PAGE: u64 = u64::MAX;

/// The pages a block lowered from, the one it starts on first.
type Pages = [u64; MAX_TRACE_PAGES];

/// Address of the instruction `k` slots after `op`'s first one.
#[inline]
fn op_pc(pages: &Pages, op: &LOp, k: u64) -> u64 {
    let page = pages[(op.off >> IDX_BITS) as usize & (MAX_TRACE_PAGES - 1)];
    page + ((op.off as u64 & (INSTRS_PER_PAGE as u64 - 1)) + k) * INSTR_SIZE
}

/// A translated superblock: straight-line ops plus one terminator.
#[derive(Debug, Clone)]
struct Block {
    /// Guest instructions retired by a full (uninterrupted) execution.
    cost: u64,
    /// Pages the block lowered from: a store hitting any of them exits
    /// `Patched`, and the slot records the generation of each.
    pages: Pages,
    ops: Box<[LOp]>,
}

/// A code epoch no bus reports: a slot holding it has not been confirmed
/// under any epoch, so entering it probes.
const UNCHECKED: u64 = u64::MAX;

/// One page of guest code: its instructions, decoded at one generation,
/// and the blocks that start on it.
#[derive(Debug, Clone)]
struct TransSlot {
    page_addr: u64,
    /// The page generation `instrs` was decoded at, and at which every
    /// block lowered this page.
    gen: u64,
    instrs: Box<[Instr; INSTRS_PER_PAGE]>,
    /// The other pages this slot's blocks lowered from, each with the
    /// generation every block lowered it at.
    deps: Vec<(u64, u64)>,
    /// The code epoch at which `gen` and every `deps` generation were last
    /// confirmed current ([`UNCHECKED`] = never, or no code epoch).
    checked: u64,
    /// Instruction index → block id + 1 (0 = not yet translated).
    block_at: Box<[u32; INSTRS_PER_PAGE]>,
    blocks: Vec<Block>,
}

impl TransSlot {
    fn new(page_addr: u64, bytes: &[u8; CODE_PAGE_SIZE as usize], gen: u64) -> Self {
        let mut slot = TransSlot {
            page_addr,
            gen,
            instrs: Box::new([Instr::ILLEGAL; INSTRS_PER_PAGE]),
            deps: Vec::new(),
            checked: UNCHECKED,
            block_at: Box::new([0; INSTRS_PER_PAGE]),
            blocks: Vec::new(),
        };
        slot.decode(bytes, gen);
        slot
    }

    /// Decodes the page's `bytes` at generation `gen`, dropping every
    /// block: the icache flush a moved page needs.
    fn decode(&mut self, bytes: &[u8; CODE_PAGE_SIZE as usize], gen: u64) {
        self.gen = gen;
        for (ins, raw) in self.instrs.iter_mut().zip(bytes.chunks_exact(INSTR_SIZE as usize)) {
            *ins = Instr::decode(raw.try_into().expect("8-byte chunk")).unwrap_or(Instr::ILLEGAL);
        }
        self.clear();
    }

    /// Drops every block, keeping the decoded page.
    fn clear(&mut self) {
        self.deps.clear();
        self.block_at.fill(0);
        self.blocks.clear();
    }
}

/// The code cache, one slot per page that blocks start on or lower from;
/// owned by a [`Vm`].
#[derive(Debug, Clone)]
pub struct TransCache {
    slots: Vec<TransSlot>,
    index: HashMap<u64, usize>,
    /// Direct-mapped front of `index` for chained transitions:
    /// `(page, slot)` by page number modulo its length.
    recent: [(u64, usize); RECENT_PAGES],
}

/// Entries in [`TransCache::recent`].
const RECENT_PAGES: usize = 16;

impl Default for TransCache {
    fn default() -> Self {
        TransCache {
            slots: Vec::new(),
            index: HashMap::new(),
            recent: [(NO_PAGE, 0); RECENT_PAGES],
        }
    }
}

impl TransCache {
    /// Drops every decoded page and translation.
    pub fn invalidate_all(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.recent = [(NO_PAGE, 0); RECENT_PAGES];
    }

    /// The slot of `page`, if it has one.
    #[inline]
    fn lookup(&mut self, page: u64) -> Option<usize> {
        let r = &mut self.recent[(page / CODE_PAGE_SIZE) as usize % RECENT_PAGES];
        if r.0 != page {
            *r = (page, *self.index.get(&page)?);
        }
        Some(r.1)
    }

    /// The slot of `page`, decoded at the generation the bus reports now.
    /// A page seen for the first time, or at another generation, is
    /// fetched and decoded here: once per generation, never once per
    /// block. `None` when the page does not probe or its bytes cannot be
    /// fetched (the interpreter then executes it, and reports the exact
    /// fault).
    fn slot<B: Bus + ?Sized>(&mut self, bus: &mut B, page: u64) -> Option<usize> {
        let gen = bus.exec_page_generation(page)?;
        let found = self.lookup(page);
        if let Some(slot) = found.filter(|&slot| self.slots[slot].gen == gen) {
            return Some(slot);
        }
        let mut bytes = [0; CODE_PAGE_SIZE as usize];
        let gen = bus.fetch_exec_page(page, &mut bytes).ok()?;
        Some(match found {
            Some(slot) => {
                self.slots[slot].decode(&bytes, gen);
                slot
            }
            None => {
                self.slots.push(TransSlot::new(page, &bytes, gen));
                self.index.insert(page, self.slots.len() - 1);
                self.slots.len() - 1
            }
        })
    }

    /// Makes the slot of `page` current and returns it. Without a code
    /// epoch that is all: blocks that lowered other pages probe them on
    /// entry. Under a code epoch the slot's other pages are confirmed here
    /// once per epoch — the check that lets chained transitions skip every
    /// probe.
    fn enter<B: Bus + ?Sized>(&mut self, bus: &mut B, page: u64) -> Option<usize> {
        let slot = self.slot(bus, page)?;
        let s = &mut self.slots[slot];
        match bus.code_epoch() {
            Some(epoch) if s.checked != epoch => {
                if s.deps.iter().any(|&(p, g)| bus.exec_page_generation(p) != Some(g)) {
                    s.clear();
                }
                s.checked = epoch;
            }
            Some(_) => {}
            None => s.checked = UNCHECKED,
        }
        Some(slot)
    }

    /// Whether every page block `id` lowered beyond its first still has
    /// the generation its slot recorded. Probes each one: with no code
    /// epoch this is how EPC paging sees the pages a trace runs on.
    fn deps_current<B: Bus + ?Sized>(&self, slot: usize, id: u32, bus: &mut B) -> bool {
        let s = &self.slots[slot];
        s.blocks[id as usize].pages[1..].iter().take_while(|&&p| p != NO_PAGE).all(|&p| {
            let recorded = s.deps.iter().find(|d| d.0 == p).map(|d| d.1);
            bus.exec_page_generation(p) == recorded
        })
    }

    /// Translates the block starting at instruction `idx` of `slot`'s
    /// page. Returns `None` when the page's bytes cannot be fetched (the
    /// interpreter then reports the exact fault).
    fn translate<B: Bus + ?Sized>(&mut self, bus: &mut B, slot: usize, idx: usize) -> Option<u32> {
        let page = self.slots[slot].page_addr;
        let mut view = View { bus, cache: self, pages: [(NO_PAGE, 0); MAX_TRACE_PAGES], n: 0 };
        view.page_index(page)?;
        let block = translate_block(&mut view, page + idx as u64 * INSTR_SIZE);
        let (pages, n) = (view.pages, view.n);
        let seen: Vec<(u64, u64)> =
            pages[1..n].iter().map(|&(p, other)| (p, self.slots[other].gen)).collect();
        let s = &mut self.slots[slot];
        // Blocks of one slot share one generation per page: a page that
        // moved since the slot's older blocks lowered it makes them stale.
        if seen.iter().any(|&(p, g)| s.deps.iter().any(|&(q, h)| q == p && h != g)) {
            s.clear();
        }
        for &(p, g) in &seen {
            if !s.deps.iter().any(|&(q, _)| q == p) {
                s.deps.push((p, g));
            }
        }
        let id = s.blocks.len() as u32;
        s.blocks.push(block);
        s.block_at[idx] = id + 1;
        Some(id)
    }
}

/// The translator's window onto guest code: up to [`MAX_TRACE_PAGES`]
/// decoded pages of the code cache, each added the first time the trace
/// reaches it.
struct View<'a, B: ?Sized> {
    bus: &'a mut B,
    cache: &'a mut TransCache,
    /// `(page, slot)` in the order the trace reached them.
    pages: [(u64, usize); MAX_TRACE_PAGES],
    n: usize,
}

impl<B: Bus + ?Sized> View<'_, B> {
    /// The index of `page` in the view, adding it when it is decodable and
    /// the view has room.
    fn page_index(&mut self, page: u64) -> Option<usize> {
        if let Some(i) = self.pages[..self.n].iter().position(|p| p.0 == page) {
            return Some(i);
        }
        if self.n == MAX_TRACE_PAGES {
            return None;
        }
        let slot = self.cache.slot(self.bus, page)?;
        self.pages[self.n] = (page, slot);
        self.n += 1;
        Some(self.n - 1)
    }

    /// Whether the trace can follow control to `addr`.
    fn covers(&mut self, addr: u64) -> bool {
        addr & (INSTR_SIZE - 1) == 0 && self.page_index(addr & !PAGE_MASK).is_some()
    }

    /// The instruction at `addr` and the three after it (`None` past what
    /// the trace can read), with `addr`'s [`LOp::off`] encoding. Bytes that
    /// do not decode — including the zeroed bytes of sanitized functions —
    /// lower as [`Opcode::Illegal`], which faults exactly like a fetch.
    fn window(&mut self, addr: u64) -> Option<([Option<Instr>; 4], u16)> {
        if addr & (INSTR_SIZE - 1) != 0 {
            return None;
        }
        let at = self.page_index(addr & !PAGE_MASK)?;
        let (first, mut i) = (((addr & PAGE_MASK) / INSTR_SIZE) as usize, at);
        let mut w = [None; 4];
        for (k, slot) in w.iter_mut().enumerate() {
            let idx = (first + k) % INSTRS_PER_PAGE;
            if k > 0 && idx == 0 {
                // The window runs onto the next page.
                match self.page_index((addr & !PAGE_MASK).wrapping_add(CODE_PAGE_SIZE)) {
                    Some(next) => i = next,
                    None => break,
                }
            }
            *slot = Some(self.cache.slots[self.pages[i].1].instrs[idx]);
        }
        Some((w, ((at << IDX_BITS) | first) as u16))
    }

    /// The lowered page table for a finished block.
    fn pages(&self) -> Pages {
        let mut pages = [NO_PAGE; MAX_TRACE_PAGES];
        for (dst, p) in pages.iter_mut().zip(&self.pages[..self.n]) {
            *dst = p.0;
        }
        pages
    }
}

/// Sign-extends an instruction immediate to 64 bits.
#[inline]
fn sx(imm: i32) -> u64 {
    imm as i64 as u64
}

/// Lowers the instruction at `pc` (encoded as `off`) without fusion.
fn lower_one(ins: Instr, pc: u64, off: u16) -> LOp {
    use LKind::*;
    let next = pc.wrapping_add(INSTR_SIZE);
    let mut op = LOp {
        kind: MovR,
        a: ins.a,
        b: ins.b,
        c: ins.c,
        off,
        retire: 1,
        sz: 0,
        imm: sx(ins.imm),
        aux: 0,
    };
    op.kind = match ins.op {
        Opcode::Illegal => TIllegal,
        Opcode::Halt => THalt,
        Opcode::Mov => MovR,
        Opcode::Movi => LImm,
        Opcode::Movhi => {
            op.imm = (ins.imm as u32 as u64) << 32;
            MovHi
        }
        Opcode::Add => Add,
        Opcode::Sub => Sub,
        Opcode::Mul => Mul,
        Opcode::Divu => Divu,
        Opcode::Remu => Remu,
        Opcode::And => And,
        Opcode::Or => Or,
        Opcode::Xor => Xor,
        Opcode::Shl => Shl,
        Opcode::Shru => Shru,
        Opcode::Shrs => Shrs,
        Opcode::Rotl32 => Rotl32,
        Opcode::Rotr32 => Rotr32,
        Opcode::Add32 => Add32,
        Opcode::Sub32 => Sub32,
        Opcode::Mul32 => Mul32,
        Opcode::Addi => Addi,
        Opcode::Andi => Andi,
        Opcode::Ori => Ori,
        Opcode::Xori => Xori,
        Opcode::Shli => {
            op.imm = (ins.imm & 63) as u64;
            Shli
        }
        Opcode::Shrui => {
            op.imm = (ins.imm & 63) as u64;
            Shrui
        }
        Opcode::Shrsi => {
            op.imm = (ins.imm & 63) as u64;
            Shrsi
        }
        Opcode::Rotl32i => {
            op.imm = (ins.imm & 31) as u64;
            Rotl32i
        }
        Opcode::Rotr32i => {
            op.imm = (ins.imm & 31) as u64;
            Rotr32i
        }
        Opcode::Add32i => {
            op.imm = ins.imm as u32 as u64;
            Add32i
        }
        Opcode::Ld8u | Opcode::Ld16u | Opcode::Ld32u | Opcode::Ld64 => {
            op.sz = mem_size(ins.op);
            Ld
        }
        Opcode::St8 | Opcode::St16 | Opcode::St32 | Opcode::St64 => {
            op.sz = mem_size(ins.op);
            St
        }
        Opcode::Jmp => {
            op.imm = next.wrapping_add(sx(ins.imm));
            TJmp
        }
        Opcode::Beq | Opcode::Bne | Opcode::Bltu | Opcode::Bgeu | Opcode::Blts | Opcode::Bges => {
            op.imm = next.wrapping_add(sx(ins.imm));
            match ins.op {
                Opcode::Beq => TBeq,
                Opcode::Bne => TBne,
                Opcode::Bltu => TBltu,
                Opcode::Bgeu => TBgeu,
                Opcode::Blts => TBlts,
                _ => TBges,
            }
        }
        Opcode::Call => {
            op.imm = next.wrapping_add(sx(ins.imm));
            TCall
        }
        Opcode::Callr => TCallr,
        Opcode::Ret => TRet,
        Opcode::Ldpc => {
            // Pre-resolved position-independent constant.
            op.imm = next;
            LImm
        }
        Opcode::Jmpr => TJmpr,
        Opcode::Ocall => {
            op.imm = sx(ins.imm);
            TOcall
        }
        Opcode::Intrin => {
            op.imm = sx(ins.imm);
            TIntrin
        }
    };
    op
}

fn is_branch(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Beq | Opcode::Bne | Opcode::Bltu | Opcode::Bgeu | Opcode::Blts | Opcode::Bges
    )
}

fn is_load(op: Opcode) -> bool {
    matches!(op, Opcode::Ld8u | Opcode::Ld16u | Opcode::Ld32u | Opcode::Ld64)
}

fn is_store(op: Opcode) -> bool {
    matches!(op, Opcode::St8 | Opcode::St16 | Opcode::St32 | Opcode::St64)
}

fn mem_size(op: Opcode) -> u8 {
    match op {
        Opcode::Ld8u | Opcode::St8 => 1,
        Opcode::Ld16u | Opcode::St16 => 2,
        Opcode::Ld32u | Opcode::St32 => 4,
        _ => 8,
    }
}

/// Tries to fuse a macro-op starting at `pc` (encoded as `off`) from the
/// instruction window `w` (`w[k]` sits `k` slots after `pc`; `None` past
/// what the trace can read); returns the op plus the number of source
/// instructions it absorbs. Fusions preserve the exact architectural
/// register state at every observable point (each fused handler performs
/// the same register writes in the same order), so a mid-op fault
/// reconstructs interpreter-identical state.
fn try_fuse(w: &[Option<Instr>; 4], pc: u64, off: u16) -> Option<(LOp, usize)> {
    use LKind::*;
    let i0 = w[0]?;
    let (i1, i2) = (w[1], w[2]);

    // movi d, lo ; movhi d, hi  →  d = full 64-bit constant (la expansion).
    if i0.op == Opcode::Movi {
        if let Some(n1) = i1 {
            if n1.op == Opcode::Movhi && n1.a == i0.a {
                let t = i0.a;
                let full = (i0.imm as u32 as u64) | ((n1.imm as u32 as u64) << 32);
                // …and if the constant feeds `add d,t,q ; ld e,[d+imm]`
                // (either add operand order), collapse the whole table
                // lookup into one op that still writes t and d.
                if let Some(n2) = i2 {
                    if n2.op == Opcode::Add && (n2.b == t || n2.c == t) {
                        let q = if n2.b == t { n2.c } else { n2.b };
                        if let Some(n3) = w[3] {
                            if is_load(n3.op) && n3.b == n2.a {
                                return Some((
                                    LOp {
                                        kind: TabLd,
                                        a: n3.a,
                                        b: q,
                                        c: n2.a,
                                        off,
                                        retire: 4,
                                        sz: mem_size(n3.op) | (t << 4),
                                        imm: sx(n3.imm),
                                        aux: full,
                                    },
                                    4,
                                ));
                            }
                        }
                    }
                }
                return Some((
                    LOp { kind: LImm, a: t, b: 0, c: 0, off, retire: 2, sz: 0, imm: full, aux: 0 },
                    2,
                ));
            }
            // movi x, k ; conditional branch  →  fused bound check (the
            // dominant loop-header shape). The movi still writes x.
            if is_branch(n1.op) {
                let mut op = lower_one(n1, pc.wrapping_add(INSTR_SIZE), off);
                op.off = off;
                op.retire = 2;
                op.sz = 2; // pre-movi marker
                op.c = i0.a;
                op.aux = sx(i0.imm);
                return Some((op, 2));
            }
        }
    }

    // addi t, p, k ; ld d, [t+imm]  →  fused address generation + load.
    if i0.op == Opcode::Addi {
        if let Some(n1) = i1 {
            if is_load(n1.op) && n1.b == i0.a {
                return Some((
                    LOp {
                        kind: AddiLd,
                        a: n1.a,
                        b: i0.b,
                        c: 0,
                        off,
                        retire: 2,
                        sz: mem_size(n1.op) | (i0.a << 4),
                        imm: sx(n1.imm),
                        aux: sx(i0.imm),
                    },
                    2,
                ));
            }
        }
        // addi x, x, k ; conditional branch  →  fused loop back-edge.
        if i0.a == i0.b {
            if let Some(n1) = i1 {
                if is_branch(n1.op) {
                    let mut op = lower_one(n1, pc.wrapping_add(INSTR_SIZE), off);
                    op.off = off;
                    op.retire = 2;
                    op.sz = 1; // pre-addi marker
                    op.c = i0.a;
                    op.aux = sx(i0.imm);
                    return Some((op, 2));
                }
            }
        }
    }

    // add t, p, q ; ld d, [t+imm]  →  fused indexed load.
    if i0.op == Opcode::Add {
        if let Some(n1) = i1 {
            if is_load(n1.op) && n1.b == i0.a {
                return Some((
                    LOp {
                        kind: AddLd,
                        a: n1.a,
                        b: i0.b,
                        c: i0.c,
                        off,
                        retire: 2,
                        sz: mem_size(n1.op) | (i0.a << 4),
                        imm: sx(n1.imm),
                        aux: 0,
                    },
                    2,
                ));
            }
        }
    }

    // shli u, s, k ; {add|or} e, ·, u  →  fused scaled index (u is still
    // written). With a trailing `ld e2,[e+imm]` the whole `tab[i*w]`
    // access collapses into one op.
    if i0.op == Opcode::Shli {
        if let Some(n1) = i1 {
            let u = i0.a;
            if n1.op == Opcode::Add && (n1.b == u || n1.c == u) {
                let other = if n1.b == u { n1.c } else { n1.b };
                if let Some(n2) = i2 {
                    if is_load(n2.op) && n2.b == n1.a {
                        return Some((
                            LOp {
                                kind: SlLd,
                                a: n2.a,
                                b: other,
                                c: i0.b,
                                off,
                                retire: 3,
                                sz: mem_size(n2.op),
                                imm: sx(n2.imm),
                                aux: (i0.imm as u64 & 63)
                                    | ((u as u64) << 8)
                                    | ((n1.a as u64) << 16),
                            },
                            3,
                        ));
                    }
                }
                return Some((
                    LOp {
                        kind: AddSl,
                        a: n1.a,
                        b: other,
                        c: i0.b,
                        off,
                        retire: 2,
                        sz: u << 4,
                        imm: i0.imm as u64 & 63,
                        aux: 0,
                    },
                    2,
                ));
            }
            if n1.op == Opcode::Or && (n1.b == u || n1.c == u) {
                let other = if n1.b == u { n1.c } else { n1.b };
                return Some((
                    LOp {
                        kind: OrSl,
                        a: n1.a,
                        b: other,
                        c: i0.b,
                        off,
                        retire: 2,
                        sz: u << 4,
                        imm: i0.imm as u64 & 63,
                        aux: 0,
                    },
                    2,
                ));
            }
        }
    }

    // shrui x, s, k ; andi x, x, m  →  fused bitfield extract (the
    // intermediate value dies in x, so only the final write is visible).
    if i0.op == Opcode::Shrui {
        if let Some(n1) = i1 {
            if n1.op == Opcode::Andi && n1.a == i0.a && n1.b == i0.a {
                return Some((
                    LOp {
                        kind: ShrAndi,
                        a: i0.a,
                        b: i0.b,
                        c: 0,
                        off,
                        retire: 2,
                        sz: 0,
                        imm: i0.imm as u64 & 63,
                        aux: sx(n1.imm),
                    },
                    2,
                ));
            }
        }
    }

    // shru x, s, v ; andi x, x, m  →  variable-shift bitfield extract.
    if i0.op == Opcode::Shru {
        if let Some(n1) = i1 {
            if n1.op == Opcode::Andi && n1.a == i0.a && n1.b == i0.a {
                return Some((
                    LOp {
                        kind: ShruAndi,
                        a: i0.a,
                        b: i0.b,
                        c: i0.c,
                        off,
                        retire: 2,
                        sz: 0,
                        imm: 0,
                        aux: sx(n1.imm),
                    },
                    2,
                ));
            }
        }
    }

    // xor t, b, c ; {xor t,·,· | st t,[d+k]}  →  three-way mix or
    // compute-and-store (SHA-1 parity, AES state writeback).
    if i0.op == Opcode::Xor {
        if let Some(n1) = i1 {
            if n1.op == Opcode::Xor && n1.a == i0.a && (n1.b == i0.a || n1.c == i0.a) {
                let x = if n1.b == i0.a { n1.c } else { n1.b };
                return Some((
                    LOp {
                        kind: Xor3,
                        a: i0.a,
                        b: i0.b,
                        c: i0.c,
                        off,
                        retire: 2,
                        sz: x << 4,
                        imm: 0,
                        aux: 0,
                    },
                    2,
                ));
            }
            if is_store(n1.op) && n1.a == i0.a {
                return Some((
                    LOp {
                        kind: XorSt,
                        a: i0.a,
                        b: i0.b,
                        c: i0.c,
                        off,
                        retire: 2,
                        sz: mem_size(n1.op) | (n1.b << 4),
                        imm: 0,
                        aux: sx(n1.imm),
                    },
                    2,
                ));
            }
        }
    }

    // add t, b, c ; add t, t, d  →  three-way sum (64- and 32-bit forms;
    // d must not alias t, whose intermediate value it would read).
    if i0.op == Opcode::Add || i0.op == Opcode::Add32 {
        if let Some(n1) = i1 {
            if n1.op == i0.op && n1.a == i0.a && (n1.b == i0.a || n1.c == i0.a) {
                let d = if n1.b == i0.a { n1.c } else { n1.b };
                if d != i0.a {
                    return Some((
                        LOp {
                            kind: if i0.op == Opcode::Add { Add3 } else { Add32_3 },
                            a: i0.a,
                            b: i0.b,
                            c: i0.c,
                            off,
                            retire: 2,
                            sz: d << 4,
                            imm: 0,
                            aux: 0,
                        },
                        2,
                    ));
                }
            }
        }
    }

    // rotl32i t, s, k ; add32 t, t, x  →  fused rotate-accumulate (the
    // SHA-1 round schedule).
    if i0.op == Opcode::Rotl32i {
        if let Some(n1) = i1 {
            if n1.op == Opcode::Add32 && n1.a == i0.a && (n1.b == i0.a || n1.c == i0.a) {
                let x = if n1.b == i0.a { n1.c } else { n1.b };
                if x != i0.a {
                    return Some((
                        LOp {
                            kind: RotlAdd32,
                            a: i0.a,
                            b: i0.b,
                            c: x,
                            off,
                            retire: 2,
                            sz: 0,
                            imm: i0.imm as u64 & 31,
                            aux: 0,
                        },
                        2,
                    ));
                }
            }
        }
    }

    // mov a, b ; mov c, d  →  paired register copy (rotation shuffles).
    if i0.op == Opcode::Mov {
        if let Some(n1) = i1 {
            if n1.op == Opcode::Mov {
                return Some((
                    LOp {
                        kind: Mov2,
                        a: i0.a,
                        b: i0.b,
                        c: n1.a,
                        off,
                        retire: 2,
                        sz: n1.b << 4,
                        imm: 0,
                        aux: 0,
                    },
                    2,
                ));
            }
        }
    }

    if is_load(i0.op) {
        if let Some(n1) = i1 {
            // ld d, [b+imm] ; xor e, e, d  →  fused mix step.
            if n1.op == Opcode::Xor && n1.b == n1.a && n1.c == i0.a && n1.a != i0.b {
                return Some((
                    LOp {
                        kind: LdXor,
                        a: i0.a,
                        b: i0.b,
                        c: n1.a,
                        off,
                        retire: 2,
                        sz: mem_size(i0.op),
                        imm: sx(i0.imm),
                        aux: 0,
                    },
                    2,
                ));
            }
            // ld d, [b+imm] ; add32 e, e, d  →  fused accumulate (hash
            // word feeds, e.g. `w[i]` into the SHA-1 round sum).
            if n1.op == Opcode::Add32 && n1.b == n1.a && n1.c == i0.a && n1.a != i0.b {
                return Some((
                    LOp {
                        kind: LdAdd32,
                        a: i0.a,
                        b: i0.b,
                        c: n1.a,
                        off,
                        retire: 2,
                        sz: mem_size(i0.op),
                        imm: sx(i0.imm),
                        aux: 0,
                    },
                    2,
                ));
            }
            // ld d, [b+imm] ; st d, [b2+imm2]  →  fused copy (memcpy body).
            if is_store(n1.op) && n1.a == i0.a && mem_size(n1.op) == mem_size(i0.op) {
                return Some((
                    LOp {
                        kind: LdSt,
                        a: i0.a,
                        b: i0.b,
                        c: n1.b,
                        off,
                        retire: 2,
                        sz: mem_size(i0.op),
                        imm: sx(i0.imm),
                        aux: sx(n1.imm),
                    },
                    2,
                ));
            }
        }
    }

    None
}

fn is_terminator(k: LKind) -> bool {
    use LKind::*;
    matches!(k, TJmp | TCall | TCallr | TRet | TJmpr | THalt | TOcall | TIntrin | TIllegal | TFall)
}

fn is_side_branch(k: LKind) -> bool {
    use LKind::*;
    matches!(k, TBeq | TBne | TBltu | TBgeu | TBlts | TBges)
}

/// The opposite condition — used to store backward branches exit-inverted.
fn invert(k: LKind) -> LKind {
    use LKind::*;
    match k {
        TBeq => TBne,
        TBne => TBeq,
        TBltu => TBgeu,
        TBgeu => TBltu,
        TBlts => TBges,
        TBges => TBlts,
        other => other,
    }
}

/// Upper bound on guest instructions lowered into one trace. Hot loops
/// unroll until the cap, so block-entry overhead amortizes over ~this many
/// instructions; it is also the worst-case fuel sliver delegated to the
/// interpreter when a run's remaining budget is smaller than one trace.
const MAX_TRACE_INSTRS: usize = 192;

/// Builds the trace superblock starting at `start`: straight-line lowering
/// that additionally follows unconditional jumps ([`LKind::Hop`]) and
/// calls ([`LKind::HCall`], with guarded returns) and continues through
/// conditional branches as side exits — forward branches exit when taken,
/// backward branches (loop back-edges) are stored inverted so the hot
/// direction stays inside the trace and the loop body unrolls up to
/// [`MAX_TRACE_INSTRS`]. Control may go to any page the view can add, so
/// page boundaries shape no trace.
fn translate_block<B: Bus + ?Sized>(view: &mut View<'_, B>, start: u64) -> Block {
    let mut ops = Vec::with_capacity(MAX_TRACE_INSTRS);
    let mut cost = 0u64;
    let mut pc = start;
    let mut budget = MAX_TRACE_INSTRS;
    // Translation-time call stack: the continuation expected by each
    // followed call, so the matching `ret` can be guarded
    // ([`LKind::RetHop`]) instead of ending the trace.
    let mut ret_stack: Vec<u64> = Vec::new();
    loop {
        let here = if budget == 0 { None } else { view.window(pc) };
        let Some((w, off)) = here else {
            // Trace cap, or a page the view cannot add: continue at `pc`.
            let fall = lower_one(Instr::ILLEGAL, pc, 0);
            ops.push(LOp { kind: LKind::TFall, retire: 0, imm: pc, ..fall });
            break;
        };
        let i0 = w[0].expect("window starts at pc");
        let (mut op, len) = try_fuse(&w, pc, off).unwrap_or_else(|| (lower_one(i0, pc, off), 1));
        budget = budget.saturating_sub(len);
        cost += op.retire as u64;
        let fall = pc.wrapping_add(len as u64 * INSTR_SIZE);
        pc = match op.kind {
            LKind::TJmp if view.covers(op.imm) => {
                // Followed jump: retire it and keep lowering at the target.
                op.kind = LKind::Hop;
                op.imm
            }
            LKind::TCall if view.covers(op.imm) => {
                // Followed call: push the return address in-trace and keep
                // lowering inside the callee.
                op.kind = LKind::HCall;
                ret_stack.push(fall);
                op.imm
            }
            LKind::TRet if !ret_stack.is_empty() => {
                // Matching ret of a followed call: guard against the
                // expected continuation and keep lowering there.
                op.kind = LKind::RetHop;
                op.imm = ret_stack.pop().expect("non-empty");
                op.imm
            }
            kind if is_side_branch(kind) && op.imm < pc && view.covers(op.imm) => {
                // Backward branch: follow the taken direction (the hot
                // loop edge); the stored condition is inverted and the
                // exit target is the fall-through.
                op.kind = invert(kind);
                std::mem::replace(&mut op.imm, fall)
            }
            // Forward (or unfollowable) branches exit when taken and
            // otherwise fall through, as does every straight-line op.
            _ => fall,
        };
        let done = is_terminator(op.kind);
        ops.push(op);
        if done {
            break;
        }
    }
    Block { cost, pages: view.pages(), ops: ops.into_boxed_slice() }
}

/// How a block execution ended. Every arm reports `consumed`, the guest
/// instructions actually retired — equal to the block cost only when the
/// trace ran to its end, smaller on side exits; the fuel difference is
/// refunded by the caller.
enum BlockExit {
    /// Control continues at `next`.
    Seq { next: u64, consumed: u64 },
    /// A store (or call push) hit a page the block lowered: the
    /// translation is stale from `consumed` instructions in; continue at
    /// `next` after revalidation.
    Patched { next: u64, consumed: u64 },
    /// Guest `halt`; pc at `next`.
    Halt { next: u64, consumed: u64 },
    /// Guest `ocall`; pc at `next`.
    Ocall { next: u64, index: i32, consumed: u64 },
    /// Guest `intrin` completed; `extra` is the bulk-fuel charge the bus
    /// reported beyond the instruction itself. The caller charges it and
    /// re-probes generations (intrinsics may write arbitrary guest memory).
    Intrin { next: u64, consumed: u64, extra: u64 },
    /// A fault `consumed` instructions in, at guest address `at`.
    Fault { fault: VmFault, at: u64, consumed: u64 },
}

/// Whether a `size`-byte access at `ea` touches any of `pages`.
#[inline]
fn hits(ea: u64, size: u64, pages: &Pages) -> bool {
    let lo = ea & !PAGE_MASK;
    let hi = ea.wrapping_add(size - 1) & !PAGE_MASK;
    // Every store pays this, and almost none hits or crosses a page: one
    // branch-free pass over the pages for the first byte's page.
    let on = |page: u64| pages.iter().fold(false, |hit, &p| hit | (p == page));
    on(lo) || (hi != lo && on(hi))
}

/// The exit for a fault `k` instructions into `op`, after the block
/// retired `done` instructions before it.
#[inline]
fn fault_in(pages: &Pages, op: &LOp, k: u64, done: u64, fault: VmFault) -> BlockExit {
    BlockExit::Fault { fault, at: op_pc(pages, op, k), consumed: done + k + 1 }
}

/// Executes one superblock. The caller has already charged the full block
/// cost; early exits report `consumed` so the difference can be refunded.
/// `pages` is the block's [`Block::pages`]: stores that hit any of them
/// invalidate lowered instructions.
fn exec_block<B: Bus + ?Sized>(
    ops: &[LOp],
    pages: &Pages,
    r: &mut [u64; NUM_REGS],
    bus: &mut B,
) -> BlockExit {
    use LKind::*;
    let mut done: u64 = 0;
    for op in ops {
        // Register indices are < 16 by `Instr::decode`; the mask lets the
        // compiler drop the bounds checks on every register access.
        let a = (op.a & 0xF) as usize;
        let b = (op.b & 0xF) as usize;
        let c = (op.c & 0xF) as usize;
        match op.kind {
            MovR => r[a] = r[b],
            LImm => r[a] = op.imm,
            MovHi => r[a] = (r[a] & 0xFFFF_FFFF) | op.imm,
            Add => r[a] = r[b].wrapping_add(r[c]),
            Sub => r[a] = r[b].wrapping_sub(r[c]),
            Mul => r[a] = r[b].wrapping_mul(r[c]),
            Divu | Remu => {
                let d = r[c];
                if d == 0 {
                    let at = op_pc(pages, op, 0);
                    return BlockExit::Fault {
                        fault: VmFault::DivideByZero { addr: at },
                        at,
                        consumed: done + 1,
                    };
                }
                r[a] = if op.kind == Divu { r[b] / d } else { r[b] % d };
            }
            And => r[a] = r[b] & r[c],
            Or => r[a] = r[b] | r[c],
            Xor => r[a] = r[b] ^ r[c],
            Shl => r[a] = r[b] << (r[c] & 63),
            Shru => r[a] = r[b] >> (r[c] & 63),
            Shrs => r[a] = ((r[b] as i64) >> (r[c] & 63)) as u64,
            Rotl32 => r[a] = (r[b] as u32).rotate_left(r[c] as u32 & 31) as u64,
            Rotr32 => r[a] = (r[b] as u32).rotate_right(r[c] as u32 & 31) as u64,
            Add32 => r[a] = (r[b] as u32).wrapping_add(r[c] as u32) as u64,
            Sub32 => r[a] = (r[b] as u32).wrapping_sub(r[c] as u32) as u64,
            Mul32 => r[a] = (r[b] as u32).wrapping_mul(r[c] as u32) as u64,
            Addi => r[a] = r[b].wrapping_add(op.imm),
            Andi => r[a] = r[b] & op.imm,
            Ori => r[a] = r[b] | op.imm,
            Xori => r[a] = r[b] ^ op.imm,
            Shli => r[a] = r[b] << op.imm,
            Shrui => r[a] = r[b] >> op.imm,
            Shrsi => r[a] = ((r[b] as i64) >> op.imm) as u64,
            Rotl32i => r[a] = (r[b] as u32).rotate_left(op.imm as u32) as u64,
            Rotr32i => r[a] = (r[b] as u32).rotate_right(op.imm as u32) as u64,
            Add32i => r[a] = (r[b] as u32).wrapping_add(op.imm as u32) as u64,
            Ld => {
                let ea = r[b].wrapping_add(op.imm);
                match bus.load(ea, (op.sz & 0xF) as usize) {
                    Ok(v) => r[a] = v,
                    Err(fault) => return fault_in(pages, op, 0, done, fault),
                }
            }
            St => {
                let ea = r[b].wrapping_add(op.imm);
                let size = (op.sz & 0xF) as u64;
                if let Err(fault) = bus.store(ea, size as usize, r[a]) {
                    return fault_in(pages, op, 0, done, fault);
                }
                if hits(ea, size, pages) {
                    return BlockExit::Patched { next: op_pc(pages, op, 1), consumed: done + 1 };
                }
            }
            LdSt => {
                let size = op.sz as u64;
                let lea = r[b].wrapping_add(op.imm);
                match bus.load(lea, size as usize) {
                    Ok(v) => r[a] = v,
                    Err(fault) => return fault_in(pages, op, 0, done, fault),
                }
                let sea = r[c].wrapping_add(op.aux);
                if let Err(fault) = bus.store(sea, size as usize, r[a]) {
                    return fault_in(pages, op, 1, done, fault);
                }
                if hits(sea, size, pages) {
                    return BlockExit::Patched { next: op_pc(pages, op, 2), consumed: done + 2 };
                }
            }
            LdXor => {
                let ea = r[b].wrapping_add(op.imm);
                match bus.load(ea, op.sz as usize) {
                    Ok(v) => {
                        r[a] = v;
                        r[c] ^= v;
                    }
                    Err(fault) => return fault_in(pages, op, 0, done, fault),
                }
            }
            AddLd | AddiLd => {
                let t = if op.kind == AddLd {
                    r[b].wrapping_add(r[c])
                } else {
                    r[b].wrapping_add(op.aux)
                };
                r[(op.sz >> 4) as usize] = t;
                // The load is the op's last source instruction.
                let lead = op.retire as u64 - 1;
                let ea = t.wrapping_add(op.imm);
                match bus.load(ea, (op.sz & 0xF) as usize) {
                    Ok(v) => r[a] = v,
                    Err(fault) => return fault_in(pages, op, lead, done, fault),
                }
            }
            TabLd => {
                // `la` writes the table base into t, the add writes the
                // address into c; both writes are architectural. r[b] is
                // read after the base write (b may alias t).
                r[(op.sz >> 4) as usize] = op.aux;
                let s = op.aux.wrapping_add(r[b]);
                r[c] = s;
                let lead = op.retire as u64 - 1;
                let ea = s.wrapping_add(op.imm);
                match bus.load(ea, (op.sz & 0xF) as usize) {
                    Ok(v) => r[a] = v,
                    Err(fault) => return fault_in(pages, op, lead, done, fault),
                }
            }
            AddSl | OrSl => {
                // r[b] is read after the scaled-index write (b may alias u).
                let sh = r[c] << op.imm;
                r[(op.sz >> 4) as usize] = sh;
                r[a] = if op.kind == AddSl { r[b].wrapping_add(sh) } else { r[b] | sh };
            }
            SlLd => {
                let k = op.aux & 63;
                let u = ((op.aux >> 8) & 0xF) as usize;
                let d = ((op.aux >> 16) & 0xF) as usize;
                let sh = r[c] << k;
                r[u] = sh;
                let s = r[b].wrapping_add(sh);
                r[d] = s;
                let lead = 2u64;
                let ea = s.wrapping_add(op.imm);
                match bus.load(ea, (op.sz & 0xF) as usize) {
                    Ok(v) => r[a] = v,
                    Err(fault) => return fault_in(pages, op, lead, done, fault),
                }
            }
            ShrAndi => r[a] = (r[b] >> op.imm) & op.aux,
            ShruAndi => r[a] = (r[b] >> (r[c] & 63)) & op.aux,
            Add3 => {
                r[a] = r[b].wrapping_add(r[c]).wrapping_add(r[(op.sz >> 4) as usize]);
            }
            Add32_3 => {
                let s = (r[b] as u32)
                    .wrapping_add(r[c] as u32)
                    .wrapping_add(r[(op.sz >> 4) as usize] as u32);
                r[a] = s as u64;
            }
            RotlAdd32 => {
                r[a] = (r[b] as u32).rotate_left(op.imm as u32).wrapping_add(r[c] as u32) as u64;
            }
            XorSt => {
                let v = r[b] ^ r[c];
                r[a] = v;
                // The store base is read after the xor write (it may alias).
                let ea = r[(op.sz >> 4) as usize].wrapping_add(op.aux);
                let size = (op.sz & 0xF) as u64;
                if let Err(fault) = bus.store(ea, size as usize, v) {
                    return fault_in(pages, op, 1, done, fault);
                }
                if hits(ea, size, pages) {
                    return BlockExit::Patched { next: op_pc(pages, op, 2), consumed: done + 2 };
                }
            }
            Xor3 => {
                // The intermediate two-way xor is written first so the
                // third operand sees it when it aliases the destination.
                r[a] = r[b] ^ r[c];
                r[a] ^= r[(op.sz >> 4) as usize];
            }
            Mov2 => {
                r[a] = r[b];
                r[c] = r[(op.sz >> 4) as usize];
            }
            LdAdd32 => {
                let ea = r[b].wrapping_add(op.imm);
                match bus.load(ea, (op.sz & 0xF) as usize) {
                    Ok(v) => {
                        r[a] = v;
                        r[c] = (r[c] as u32).wrapping_add(v as u32) as u64;
                    }
                    Err(fault) => return fault_in(pages, op, 0, done, fault),
                }
            }
            Hop => {}
            HCall => {
                let ret = op_pc(pages, op, 1);
                let sp = r[REG_SP as usize].wrapping_sub(8);
                if let Err(fault) = bus.store(sp, 8, ret) {
                    return fault_in(pages, op, 0, done, fault);
                }
                r[REG_SP as usize] = sp;
                if hits(sp, 8, pages) {
                    return BlockExit::Patched { next: op.imm, consumed: done + 1 };
                }
                // Control continues in-trace at the callee's lowering.
            }
            RetHop => {
                let sp = r[REG_SP as usize];
                match bus.load(sp, 8) {
                    Ok(v) => {
                        r[REG_SP as usize] = sp.wrapping_add(8);
                        if v != op.imm {
                            // The guest redirected the return: leave the
                            // trace for the actual target.
                            return BlockExit::Seq { next: v, consumed: done + 1 };
                        }
                        // Expected return: continue at the caller's
                        // continuation, the next op in the trace.
                    }
                    Err(fault) => return fault_in(pages, op, 0, done, fault),
                }
            }
            TJmp => return BlockExit::Seq { next: op.imm, consumed: done + 1 },
            TBeq | TBne | TBltu | TBgeu | TBlts | TBges => {
                // Fused pre-op: 1 = loop-step addi, 2 = bound-constant movi.
                if op.sz == 1 {
                    r[c] = r[c].wrapping_add(op.aux);
                } else if op.sz == 2 {
                    r[c] = op.aux;
                }
                let (x, y) = (r[a], r[b]);
                let exit = match op.kind {
                    TBeq => x == y,
                    TBne => x != y,
                    TBltu => x < y,
                    TBgeu => x >= y,
                    TBlts => (x as i64) < (y as i64),
                    _ => (x as i64) >= (y as i64),
                };
                if exit {
                    return BlockExit::Seq { next: op.imm, consumed: done + op.retire as u64 };
                }
                // Not exiting: the trace continues with the next op.
            }
            TCall | TCallr => {
                let ret = op_pc(pages, op, 1);
                let target = if op.kind == TCall { op.imm } else { r[b] };
                let sp = r[REG_SP as usize].wrapping_sub(8);
                if let Err(fault) = bus.store(sp, 8, ret) {
                    return fault_in(pages, op, 0, done, fault);
                }
                r[REG_SP as usize] = sp;
                if hits(sp, 8, pages) {
                    return BlockExit::Patched { next: target, consumed: done + 1 };
                }
                return BlockExit::Seq { next: target, consumed: done + 1 };
            }
            TRet => {
                let sp = r[REG_SP as usize];
                match bus.load(sp, 8) {
                    Ok(v) => {
                        r[REG_SP as usize] = sp.wrapping_add(8);
                        return BlockExit::Seq { next: v, consumed: done + 1 };
                    }
                    Err(fault) => return fault_in(pages, op, 0, done, fault),
                }
            }
            TJmpr => return BlockExit::Seq { next: r[b], consumed: done + 1 },
            THalt => return BlockExit::Halt { next: op_pc(pages, op, 1), consumed: done + 1 },
            TOcall => {
                return BlockExit::Ocall {
                    next: op_pc(pages, op, 1),
                    index: op.imm as i32,
                    consumed: done + 1,
                }
            }
            TIntrin => {
                // The interpreter commits pc past the intrin *before*
                // dispatching, so an intrinsic fault reports that pc.
                let next = op_pc(pages, op, 1);
                match bus.intrinsic(op.imm as i32, r) {
                    Ok(extra) => {
                        return BlockExit::Intrin { next, consumed: done + 1, extra };
                    }
                    Err(fault) => return BlockExit::Fault { fault, at: next, consumed: done + 1 },
                }
            }
            TIllegal => {
                let at = op_pc(pages, op, 0);
                return BlockExit::Fault {
                    fault: VmFault::IllegalInstruction { addr: at },
                    at,
                    consumed: done + 1,
                };
            }
            TFall => return BlockExit::Seq { next: op.imm, consumed: done },
        }
        done += op.retire as u64;
    }
    unreachable!("every superblock ends with a terminator")
}

/// Executes instructions one at a time through the interpreter's
/// [`Vm::step`] until the pc, after at least one, sits aligned on a page
/// the bus offers for page-granular execution — where translation takes
/// over again — or the run ends with `Some` exit.
fn step_until_translatable<B: Bus + ?Sized>(
    vm: &mut Vm,
    bus: &mut B,
    fuel: &mut u64,
) -> Result<Option<Exit>, VmFault> {
    loop {
        if let Some(exit) = vm.step(bus, fuel)? {
            return Ok(Some(exit));
        }
        let pc = vm.pc;
        if pc & (INSTR_SIZE - 1) == 0 && bus.exec_page_generation(pc & !PAGE_MASK).is_some() {
            return Ok(None);
        }
    }
}

/// Runs the VM under superblock translation until an exit or fault,
/// falling back to the interpreter wherever translation does not apply.
/// Drives [`Vm::pc`]/[`Vm::retired`]/[`ExecStats`] exactly like the
/// interpreter would.
///
/// [`ExecStats`]: crate::interp::ExecStats
pub(crate) fn run_superblock<B: Bus + ?Sized>(
    vm: &mut Vm,
    bus: &mut B,
    mut fuel: u64,
) -> Result<Exit, VmFault> {
    // Set when the page at `vm.pc` probed fine but its bytes could not be
    // fetched: the interpreter then runs (and reports the exact fault).
    let mut untranslatable = false;
    loop {
        let pc = vm.pc;
        let mut page = pc & !PAGE_MASK;
        // Misaligned or untranslatable pc: the interpreter executes until
        // the pc lands aligned on a translatable page.
        let entered = if pc & (INSTR_SIZE - 1) == 0 && !untranslatable {
            vm.trans.enter(bus, page)
        } else {
            None
        };
        let Some(mut slot) = entered else {
            untranslatable = false;
            match step_until_translatable(vm, bus, &mut fuel)? {
                Some(exit) => return Ok(exit),
                None => continue,
            }
        };
        let mut checked = vm.trans.slots[slot].checked;
        let mut idx = ((pc & PAGE_MASK) >> 3) as usize;
        // The chain: block exits go straight to the next block while the
        // code epoch vouches for it. Sound because a store that changes a
        // page the executing block lowered exits via `Patched`, and
        // everything else that moves an executable page's generation
        // (other stores, host writes, EWB/ELDU, intrinsics) moves the code
        // epoch. With no code epoch the chain stays on its page (and not
        // past an intrinsic, which may write any page), so EPC paging and
        // LRU stamps see every page change, and blocks that lowered other
        // pages probe them on entry.
        loop {
            let (block_id, fresh) = match vm.trans.slots[slot].block_at[idx] {
                0 => {
                    vm.stats.blocks_translated += 1;
                    match vm.trans.translate(bus, slot, idx) {
                        Some(id) => (id, true),
                        None => {
                            untranslatable = true;
                            break;
                        }
                    }
                }
                id => (id - 1, false),
            };
            let block = &vm.trans.slots[slot].blocks[block_id as usize];
            // A block lowered just now is current by construction; with no
            // code epoch an older one re-checks the other pages it lowered.
            if !fresh
                && block.pages[1] != NO_PAGE
                && checked == UNCHECKED
                && !vm.trans.deps_current(slot, block_id, bus)
            {
                vm.trans.slots[slot].clear();
                continue;
            }
            let cost = block.cost;
            if fuel < cost {
                // Less fuel than one block: the interpreter finishes the
                // run with exact per-instruction OutOfFuel semantics.
                vm.pc = page + idx as u64 * INSTR_SIZE;
                return vm.interp(bus, fuel);
            }
            fuel -= cost;
            vm.stats.blocks_entered += 1;
            let exit = exec_block(&block.ops, &block.pages, &mut vm.regs, bus);
            let (next, intrin) = match exit {
                BlockExit::Seq { next, consumed } => {
                    fuel += cost - consumed;
                    vm.retired += consumed;
                    vm.stats.trans_retired += consumed;
                    (next, false)
                }
                BlockExit::Intrin { next, consumed, extra } => {
                    fuel += cost - consumed;
                    vm.retired += consumed + extra;
                    vm.stats.trans_retired += consumed + extra;
                    vm.pc = next;
                    // Charge the bulk fuel exactly like the interpreter
                    // (post-work, effects committed).
                    if fuel < extra {
                        return Err(VmFault::OutOfFuel);
                    }
                    fuel -= extra;
                    (next, true)
                }
                BlockExit::Patched { next, consumed } => {
                    fuel += cost - consumed;
                    vm.retired += consumed;
                    vm.stats.trans_retired += consumed;
                    vm.pc = next;
                    break;
                }
                BlockExit::Halt { next, consumed } => {
                    vm.retired += consumed;
                    vm.stats.trans_retired += consumed;
                    vm.pc = next;
                    return Ok(Exit::Halt(vm.regs[0]));
                }
                BlockExit::Ocall { next, index, consumed } => {
                    vm.retired += consumed;
                    vm.stats.trans_retired += consumed;
                    vm.pc = next;
                    return Ok(Exit::Ocall(index));
                }
                BlockExit::Fault { fault, at, consumed } => {
                    vm.retired += consumed;
                    vm.stats.trans_retired += consumed;
                    vm.pc = at;
                    return Err(fault);
                }
            };
            vm.pc = next;
            if next & (INSTR_SIZE - 1) != 0 {
                break;
            }
            let next_page = next & !PAGE_MASK;
            let epoch = bus.code_epoch();
            if next_page != page {
                // Another page: any slot confirmed at the current epoch.
                let Some(epoch) = epoch else { break };
                match vm.trans.lookup(next_page) {
                    Some(s) if vm.trans.slots[s].checked == epoch => {
                        (page, slot, checked) = (next_page, s, epoch);
                    }
                    _ => break,
                }
            } else if epoch.map_or(intrin, |epoch| epoch != checked) {
                break;
            }
            idx = ((next & PAGE_MASK) >> 3) as usize;
        }
    }
}
