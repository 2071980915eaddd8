//! Superblock translation: the execution tier above the decode cache.
//!
//! The decode cache (PR 2) removed per-instruction bus traffic but still
//! retires one [`Instr`] per trip through the interpreter's `match`, with a
//! fuel check, a retired-counter bump and a pc update per instruction. This
//! module lowers each validated page into **superblocks** — maximal
//! straight-line runs ending at the first control transfer — and executes
//! them with a token-threaded dispatch over pre-lowered micro-ops:
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
//! * back-to-back blocks on the same page chain without re-probing the
//!   bus: a store that hits the executing page is detected *at the store*
//!   (the [`BlockExit::Patched`] exit) and every other way the page's bytes
//!   can change moves its generation, which is re-checked on page entry.
//!
//! Anything the translator cannot prove equivalent — misaligned PCs,
//! uncacheable buses, page-trace mode, fuel slivers smaller than one block
//! — falls back to the instruction-at-a-time interpreter loop, which bails
//! back to the translator as soon as execution returns to a translatable
//! page. Invalidation reuses the decode cache's per-page generations
//! unchanged, so the sanitize → fault → `elide_restore` → re-execute life
//! cycle needs no extra coherence machinery.

use crate::dcache::INSTRS_PER_PAGE;
use crate::interp::{Exit, InterpOutcome, Vm};
use crate::isa::{Instr, Opcode, INSTR_SIZE, NUM_REGS, REG_SP};
use crate::mem::{Bus, VmFault, CODE_PAGE_SIZE};

const PAGE_MASK: u64 = CODE_PAGE_SIZE - 1;

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
    /// A followed same-page `jmp`: retires the jump, control stays inside
    /// the trace (the next op is the jump target's lowering).
    Hop,
    /// A followed same-page `call`: pushes the return address and falls
    /// through to the callee's lowering. Exits via `Patched` if the push
    /// hits the executing page.
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
    TJmp,   // imm = absolute target (cross-page or indirect-shaped)
    TCall,  // imm = absolute target
    TCallr, // target = r[b]
    TRet,
    TJmpr, // target = r[b]
    THalt,
    TOcall,  // imm = ocall index
    TIntrin, // imm = intrinsic index
    TIllegal,
    TFall, // trace cap or page end; imm = continuation address
}

/// One lowered micro-op. 32 bytes; operands pre-resolved at translation.
#[derive(Debug, Clone, Copy)]
struct LOp {
    kind: LKind,
    a: u8,
    b: u8,
    c: u8,
    /// Index of the op's **first** source instruction within the page.
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

/// A translated superblock: straight-line ops plus one terminator.
#[derive(Debug, Clone)]
struct Block {
    /// Guest instructions retired by a full (uninterrupted) execution.
    cost: u64,
    /// Second page this block lowered instructions from (`u64::MAX` for a
    /// single-page block): the trace continued across the sequential page
    /// boundary, so stores hitting `watch` must exit `Patched` and entry
    /// must re-check the neighbour's generation against the slot's
    /// `dep_gen`.
    watch: u64,
    ops: Box<[LOp]>,
}

/// Per-dcache-slot translation state, keyed by `(page_addr, generation)`.
#[derive(Debug, Clone)]
struct TransSlot {
    page_addr: u64,
    gen: u64,
    /// Cross-page dependency: every block with `watch != u64::MAX` in this
    /// slot lowered instructions from `dep_page` at generation `dep_gen`
    /// (`u64::MAX` = no block crosses). Checked on crossing-block entry.
    dep_page: u64,
    dep_gen: u64,
    /// Instruction index → block id + 1 (0 = not yet translated).
    block_at: Box<[u32; INSTRS_PER_PAGE]>,
    blocks: Vec<Block>,
}

impl TransSlot {
    fn empty() -> Self {
        TransSlot {
            page_addr: u64::MAX,
            gen: 0,
            dep_page: u64::MAX,
            dep_gen: 0,
            block_at: Box::new([0; INSTRS_PER_PAGE]),
            blocks: Vec::new(),
        }
    }

    fn reset(&mut self, page_addr: u64, gen: u64) {
        self.page_addr = page_addr;
        self.gen = gen;
        self.dep_page = u64::MAX;
        self.dep_gen = 0;
        self.block_at.fill(0);
        self.blocks.clear();
    }
}

/// Superblock cache, slot-parallel to the [`crate::dcache::DecodeCache`];
/// owned by a [`Vm`].
#[derive(Debug, Clone, Default)]
pub struct TransCache {
    slots: Vec<TransSlot>,
}

impl TransCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TransCache { slots: Vec::new() }
    }

    /// Drops every translation (used with
    /// [`crate::dcache::DecodeCache::invalidate_all`]).
    pub fn invalidate_all(&mut self) {
        self.slots.clear();
    }

    /// Number of translated blocks currently live (all slots).
    pub fn translated_blocks(&self) -> usize {
        self.slots.iter().map(|s| s.blocks.len()).sum()
    }

    /// Makes `slot` current for `(page_addr, gen)`, dropping any stale
    /// translation for a previous generation or an evicted page.
    fn ensure(&mut self, slot: usize, page_addr: u64, gen: u64) {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, TransSlot::empty);
        }
        let s = &mut self.slots[slot];
        if s.page_addr != page_addr || s.gen != gen {
            s.reset(page_addr, gen);
        }
    }

    fn block_id(&self, slot: usize, idx: usize) -> Option<u32> {
        match self.slots[slot].block_at[idx] {
            0 => None,
            id => Some(id - 1),
        }
    }

    /// Drops every translation in `slot` (keeping its page identity):
    /// called when the cross-page dependency's generation moved, so the
    /// crossing blocks are stale while the page's own bytes are not.
    fn drop_dep(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        let (page, gen) = (s.page_addr, s.gen);
        s.reset(page, gen);
    }

    /// Translates the block at `idx`. `instrs` covers this page and — when
    /// `dep` is `Some((next_page, next_gen))` — the sequentially next page,
    /// letting the trace continue across the boundary; a block that does
    /// cross records the dependency on the slot and watches `next_page`.
    fn translate(
        &mut self,
        slot: usize,
        idx: usize,
        instrs: &[Instr],
        page: u64,
        dep: Option<(u64, u64)>,
    ) -> u32 {
        let (mut block, crossed) = translate_block(instrs, page, idx);
        let s = &mut self.slots[slot];
        if crossed {
            let (dep_page, dep_gen) = dep.expect("crossing requires a pair view");
            debug_assert!(s.dep_page == u64::MAX || s.dep_page == dep_page);
            s.dep_page = dep_page;
            s.dep_gen = dep_gen;
            block.watch = dep_page;
        }
        let id = s.blocks.len() as u32;
        s.blocks.push(block);
        s.block_at[idx] = id + 1;
        id
    }
}

/// Sign-extends an instruction immediate to 64 bits.
#[inline]
fn sx(imm: i32) -> u64 {
    imm as i64 as u64
}

/// Lowers one instruction at page index `idx` without fusion.
fn lower_one(ins: Instr, idx: usize, page: u64) -> LOp {
    use LKind::*;
    let off = idx as u16;
    let next = page + (idx as u64 + 1) * INSTR_SIZE;
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
            op.sz = match ins.op {
                Opcode::Ld8u => 1,
                Opcode::Ld16u => 2,
                Opcode::Ld32u => 4,
                _ => 8,
            };
            Ld
        }
        Opcode::St8 | Opcode::St16 | Opcode::St32 | Opcode::St64 => {
            op.sz = match ins.op {
                Opcode::St8 => 1,
                Opcode::St16 => 2,
                Opcode::St32 => 4,
                _ => 8,
            };
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

/// Tries to fuse a macro-op starting at `idx`; returns the op plus the
/// number of source instructions it absorbs. Fusions preserve the exact
/// architectural register state at every observable point (each fused
/// handler performs the same register writes in the same order), so a
/// mid-op fault reconstructs interpreter-identical state.
fn try_fuse(instrs: &[Instr], idx: usize, page: u64) -> Option<(LOp, usize)> {
    use LKind::*;
    let i0 = instrs[idx];
    let i1 = if idx + 1 < instrs.len() { Some(instrs[idx + 1]) } else { None };
    let i2 = if idx + 2 < instrs.len() { Some(instrs[idx + 2]) } else { None };
    let off = idx as u16;

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
                        if idx + 3 < instrs.len() {
                            let n3 = instrs[idx + 3];
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
                let mut op = lower_one(n1, idx + 1, page);
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
                    let mut op = lower_one(n1, idx + 1, page);
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

/// `addr` as an instruction index into the trace's view (`n` decoded
/// instructions starting at `page`), if it is aligned and in range. With a
/// pair view (`n == 2 * INSTRS_PER_PAGE`) this also resolves addresses on
/// the sequentially next page, so jumps, calls and loop back-edges that
/// straddle the boundary stay inside the trace.
#[inline]
fn trace_idx(addr: u64, page: u64, n: usize) -> Option<usize> {
    if addr >= page && addr < page + n as u64 * INSTR_SIZE && addr & (INSTR_SIZE - 1) == 0 {
        Some(((addr - page) >> 3) as usize)
    } else {
        None
    }
}

/// Upper bound on guest instructions lowered into one trace. Hot loops
/// unroll until the cap, so block-entry overhead amortizes over ~this many
/// instructions; it is also the worst-case fuel sliver delegated to the
/// interpreter when a run's remaining budget is smaller than one trace.
const MAX_TRACE_INSTRS: usize = 192;

/// Builds the trace superblock starting at instruction index `start`:
/// straight-line lowering that additionally follows same-page
/// unconditional jumps ([`LKind::Hop`]) and continues through conditional
/// branches as side exits — forward branches exit when taken, backward
/// branches (loop back-edges) are stored inverted so the hot direction
/// stays inside the trace and the loop body unrolls up to
/// [`MAX_TRACE_INSTRS`].
fn translate_block(instrs: &[Instr], page: u64, start: usize) -> (Block, bool) {
    let n = instrs.len();
    let mut ops = Vec::new();
    let mut cost = 0u64;
    let mut idx = start;
    let mut budget = MAX_TRACE_INSTRS;
    // Whether any lowered instruction came from beyond the first page —
    // the caller then records the cross-page dependency.
    let mut crossed = false;
    // Translation-time call stack: the continuation index expected by each
    // followed same-page call, so the matching `ret` can be guarded
    // ([`LKind::RetHop`]) instead of ending the trace.
    let mut ret_stack: Vec<usize> = Vec::new();
    loop {
        if idx >= n || budget == 0 {
            // View end or trace cap: continue at the next untranslated pc.
            let cont = if idx >= n {
                page + n as u64 * INSTR_SIZE
            } else {
                page + (idx as u64) * INSTR_SIZE
            };
            ops.push(LOp {
                kind: LKind::TFall,
                a: 0,
                b: 0,
                c: 0,
                off: idx.min(n) as u16,
                retire: 0,
                sz: 0,
                imm: cont,
                aux: 0,
            });
            break;
        }
        crossed |= idx >= INSTRS_PER_PAGE;
        let (mut op, len) = match try_fuse(instrs, idx, page) {
            Some((op, len)) => (op, len),
            None => (lower_one(instrs[idx], idx, page), 1),
        };
        crossed |= idx + len > INSTRS_PER_PAGE;
        budget = budget.saturating_sub(len);
        if op.kind == LKind::TJmp {
            if let Some(t) = trace_idx(op.imm, page, n) {
                // Followed jump: retire it and keep lowering at the target.
                op.kind = LKind::Hop;
                cost += 1;
                ops.push(op);
                idx = t;
                continue;
            }
        }
        if op.kind == LKind::TCall {
            if let Some(t) = trace_idx(op.imm, page, n) {
                // Followed call: push the return address in-trace and keep
                // lowering inside the callee.
                op.kind = LKind::HCall;
                cost += 1;
                ops.push(op);
                ret_stack.push(idx + 1);
                idx = t;
                continue;
            }
        }
        if op.kind == LKind::TRet {
            if let Some(rid) = ret_stack.pop() {
                // Matching ret of a followed call: guard against the
                // expected continuation and keep lowering there.
                op.kind = LKind::RetHop;
                op.imm = page + (rid as u64) * INSTR_SIZE;
                cost += 1;
                ops.push(op);
                idx = rid;
                continue;
            }
        }
        if is_side_branch(op.kind) {
            let fall_idx = idx + len;
            match trace_idx(op.imm, page, n) {
                Some(t) if t < idx => {
                    // Backward branch: follow the taken direction (the hot
                    // loop edge); the stored condition is inverted and the
                    // exit target is the fall-through.
                    op.kind = invert(op.kind);
                    op.imm = page + (fall_idx as u64) * INSTR_SIZE;
                    cost += op.retire as u64;
                    ops.push(op);
                    idx = t;
                }
                _ => {
                    // Forward (or cross-page) branch: follow fall-through,
                    // exit when taken.
                    cost += op.retire as u64;
                    ops.push(op);
                    idx = fall_idx;
                }
            }
            continue;
        }
        cost += op.retire as u64;
        let done = is_terminator(op.kind);
        ops.push(op);
        idx += len;
        if done {
            break;
        }
    }
    (Block { cost, watch: u64::MAX, ops: ops.into_boxed_slice() }, crossed)
}

/// How a block execution ended. Every arm reports `consumed`, the guest
/// instructions actually retired — equal to the block cost only when the
/// trace ran to its end, smaller on side exits; the fuel difference is
/// refunded by the caller.
enum BlockExit {
    /// Control continues at `next`. `probe` forces a generation re-check
    /// even on the same page (set after intrinsics, which may write
    /// arbitrary guest memory).
    Seq { next: u64, probe: bool, consumed: u64 },
    /// A store (or call push) hit the executing page: the translation is
    /// stale from `consumed` instructions in; continue at `next` after
    /// revalidation.
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

/// Whether a `size`-byte access at `ea` touches `page`.
#[inline]
fn hits_page(ea: u64, size: u64, page: u64) -> bool {
    (ea & !PAGE_MASK) == page || (ea.wrapping_add(size - 1) & !PAGE_MASK) == page
}

/// Whether an access touches the executing page or the block's watched
/// cross-page neighbour (`u64::MAX` = none; unmappable, so it never hits).
#[inline]
fn hits_trace(ea: u64, size: u64, page: u64, watch: u64) -> bool {
    hits_page(ea, size, page) || hits_page(ea, size, watch)
}

/// Executes one superblock. The caller has already charged the full block
/// cost; early exits report `consumed` so the difference can be refunded.
/// `watch` is the block's cross-page dependency ([`Block::watch`]): stores
/// that hit it invalidate lowered instructions just like own-page stores.
fn exec_block<B: Bus + ?Sized>(
    ops: &[LOp],
    page: u64,
    watch: u64,
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
                    let at = page + op.off as u64 * INSTR_SIZE;
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
                    Err(fault) => {
                        let at = page + op.off as u64 * INSTR_SIZE;
                        return BlockExit::Fault { fault, at, consumed: done + 1 };
                    }
                }
            }
            St => {
                let ea = r[b].wrapping_add(op.imm);
                let size = (op.sz & 0xF) as u64;
                if let Err(fault) = bus.store(ea, size as usize, r[a]) {
                    let at = page + op.off as u64 * INSTR_SIZE;
                    return BlockExit::Fault { fault, at, consumed: done + 1 };
                }
                if hits_trace(ea, size, page, watch) {
                    return BlockExit::Patched {
                        next: page + (op.off as u64 + 1) * INSTR_SIZE,
                        consumed: done + 1,
                    };
                }
            }
            LdSt => {
                let size = op.sz as u64;
                let lea = r[b].wrapping_add(op.imm);
                match bus.load(lea, size as usize) {
                    Ok(v) => r[a] = v,
                    Err(fault) => {
                        let at = page + op.off as u64 * INSTR_SIZE;
                        return BlockExit::Fault { fault, at, consumed: done + 1 };
                    }
                }
                let sea = r[c].wrapping_add(op.aux);
                if let Err(fault) = bus.store(sea, size as usize, r[a]) {
                    let at = page + (op.off as u64 + 1) * INSTR_SIZE;
                    return BlockExit::Fault { fault, at, consumed: done + 2 };
                }
                if hits_trace(sea, size, page, watch) {
                    return BlockExit::Patched {
                        next: page + (op.off as u64 + 2) * INSTR_SIZE,
                        consumed: done + 2,
                    };
                }
            }
            LdXor => {
                let ea = r[b].wrapping_add(op.imm);
                match bus.load(ea, op.sz as usize) {
                    Ok(v) => {
                        r[a] = v;
                        r[c] ^= v;
                    }
                    Err(fault) => {
                        let at = page + op.off as u64 * INSTR_SIZE;
                        return BlockExit::Fault { fault, at, consumed: done + 1 };
                    }
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
                    Err(fault) => {
                        let at = page + (op.off as u64 + lead) * INSTR_SIZE;
                        return BlockExit::Fault { fault, at, consumed: done + lead + 1 };
                    }
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
                    Err(fault) => {
                        let at = page + (op.off as u64 + lead) * INSTR_SIZE;
                        return BlockExit::Fault { fault, at, consumed: done + lead + 1 };
                    }
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
                    Err(fault) => {
                        let at = page + (op.off as u64 + lead) * INSTR_SIZE;
                        return BlockExit::Fault { fault, at, consumed: done + lead + 1 };
                    }
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
                    let at = page + (op.off as u64 + 1) * INSTR_SIZE;
                    return BlockExit::Fault { fault, at, consumed: done + 2 };
                }
                if hits_trace(ea, size, page, watch) {
                    return BlockExit::Patched {
                        next: page + (op.off as u64 + 2) * INSTR_SIZE,
                        consumed: done + 2,
                    };
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
                    Err(fault) => {
                        let at = page + op.off as u64 * INSTR_SIZE;
                        return BlockExit::Fault { fault, at, consumed: done + 1 };
                    }
                }
            }
            Hop => {}
            HCall => {
                let ret = page + (op.off as u64 + 1) * INSTR_SIZE;
                let sp = r[REG_SP as usize].wrapping_sub(8);
                if let Err(fault) = bus.store(sp, 8, ret) {
                    let at = page + op.off as u64 * INSTR_SIZE;
                    return BlockExit::Fault { fault, at, consumed: done + 1 };
                }
                r[REG_SP as usize] = sp;
                if hits_trace(sp, 8, page, watch) {
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
                            return BlockExit::Seq { next: v, probe: false, consumed: done + 1 };
                        }
                        // Expected return: continue at the caller's
                        // continuation, the next op in the trace.
                    }
                    Err(fault) => {
                        let at = page + op.off as u64 * INSTR_SIZE;
                        return BlockExit::Fault { fault, at, consumed: done + 1 };
                    }
                }
            }
            TJmp => return BlockExit::Seq { next: op.imm, probe: false, consumed: done + 1 },
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
                    return BlockExit::Seq {
                        next: op.imm,
                        probe: false,
                        consumed: done + op.retire as u64,
                    };
                }
                // Not exiting: the trace continues with the next op.
            }
            TCall | TCallr => {
                let ret = page + (op.off as u64 + 1) * INSTR_SIZE;
                let target = if op.kind == TCall { op.imm } else { r[b] };
                let sp = r[REG_SP as usize].wrapping_sub(8);
                if let Err(fault) = bus.store(sp, 8, ret) {
                    let at = page + op.off as u64 * INSTR_SIZE;
                    return BlockExit::Fault { fault, at, consumed: done + 1 };
                }
                r[REG_SP as usize] = sp;
                if hits_trace(sp, 8, page, watch) {
                    return BlockExit::Patched { next: target, consumed: done + 1 };
                }
                return BlockExit::Seq { next: target, probe: false, consumed: done + 1 };
            }
            TRet => {
                let sp = r[REG_SP as usize];
                match bus.load(sp, 8) {
                    Ok(v) => {
                        r[REG_SP as usize] = sp.wrapping_add(8);
                        return BlockExit::Seq { next: v, probe: false, consumed: done + 1 };
                    }
                    Err(fault) => {
                        let at = page + op.off as u64 * INSTR_SIZE;
                        return BlockExit::Fault { fault, at, consumed: done + 1 };
                    }
                }
            }
            TJmpr => return BlockExit::Seq { next: r[b], probe: false, consumed: done + 1 },
            THalt => {
                return BlockExit::Halt {
                    next: page + (op.off as u64 + 1) * INSTR_SIZE,
                    consumed: done + 1,
                }
            }
            TOcall => {
                return BlockExit::Ocall {
                    next: page + (op.off as u64 + 1) * INSTR_SIZE,
                    index: op.imm as i32,
                    consumed: done + 1,
                }
            }
            TIntrin => {
                // The interpreter commits pc past the intrin *before*
                // dispatching, so an intrinsic fault reports that pc.
                let next = page + (op.off as u64 + 1) * INSTR_SIZE;
                match bus.intrinsic(op.imm as i32, r) {
                    Ok(extra) => {
                        return BlockExit::Intrin { next, consumed: done + 1, extra };
                    }
                    Err(fault) => return BlockExit::Fault { fault, at: next, consumed: done + 1 },
                }
            }
            TIllegal => {
                let at = page + op.off as u64 * INSTR_SIZE;
                return BlockExit::Fault {
                    fault: VmFault::IllegalInstruction { addr: at },
                    at,
                    consumed: done + 1,
                };
            }
            TFall => return BlockExit::Seq { next: op.imm, probe: false, consumed: done },
        }
        done += op.retire as u64;
    }
    unreachable!("every superblock ends with a terminator")
}

/// Translates the block at `idx` in `slot`, offering the translator a
/// two-page view when the sequentially next page is decodable — so traces
/// (and hot loops) that straddle a page boundary stay in one superblock
/// instead of ping-ponging through the dispatcher every iteration.
/// Returns `None` when decoding the neighbour recycled this page's dcache
/// slot (possible only at cache capacity); the caller then revalidates.
fn translate_with_pair<B: Bus + ?Sized>(
    vm: &mut Vm,
    bus: &mut B,
    slot: usize,
    page: u64,
    idx: usize,
) -> Option<u32> {
    let next_page = page + CODE_PAGE_SIZE;
    let Some(slot2) = vm.dcache.validate(bus, next_page) else {
        return Some(vm.trans.translate(slot, idx, vm.dcache.instrs(slot), page, None));
    };
    if vm.dcache.slot_page(slot) != page {
        return None;
    }
    let gen2 = vm.dcache.generation(slot2);
    // Crossing blocks already in the slot were translated against an older
    // neighbour generation: drop them so every crossing block in the slot
    // shares one (dep_page, dep_gen) pair.
    let (dep_page, dep_gen) = {
        let s = &vm.trans.slots[slot];
        (s.dep_page, s.dep_gen)
    };
    if dep_page != u64::MAX && (dep_page, dep_gen) != (next_page, gen2) {
        vm.trans.drop_dep(slot);
    }
    let mut view: Vec<Instr> = Vec::with_capacity(2 * INSTRS_PER_PAGE);
    view.extend_from_slice(vm.dcache.instrs(slot));
    view.extend_from_slice(vm.dcache.instrs(slot2));
    Some(vm.trans.translate(slot, idx, &view, page, Some((next_page, gen2))))
}

/// Runs the VM under superblock translation until an exit or fault,
/// falling back to the interpreter loop wherever translation does not
/// apply. Drives [`Vm::pc`]/[`Vm::retired`]/[`ExecStats`] exactly like the
/// interpreter would.
pub(crate) fn run_superblock<B: Bus + ?Sized>(
    vm: &mut Vm,
    bus: &mut B,
    mut fuel: u64,
) -> Result<Exit, VmFault> {
    loop {
        let pc = vm.pc;
        // Misaligned or untranslatable pc: let the interpreter execute; it
        // bails back here once it lands aligned on a translatable page.
        if pc & (INSTR_SIZE - 1) != 0 {
            match vm.run_interp(bus, fuel, true) {
                InterpOutcome::Done(r) => return r,
                InterpOutcome::Retranslate { fuel_left } => {
                    fuel = fuel_left;
                    continue;
                }
            }
        }
        let page = pc & !PAGE_MASK;
        let Some(slot) = vm.dcache.validate(bus, page) else {
            match vm.run_interp(bus, fuel, true) {
                InterpOutcome::Done(r) => return r,
                InterpOutcome::Retranslate { fuel_left } => {
                    fuel = fuel_left;
                    continue;
                }
            }
        };
        vm.trans.ensure(slot, page, vm.dcache.generation(slot));
        let mut idx = ((pc & PAGE_MASK) >> 3) as usize;
        // Same-page chain: blocks on this page execute without another bus
        // probe. Sound because a store that could change this page's bytes
        // (or a watched neighbour's) exits via `Patched`, and everything
        // else that moves a page's generation (host writes, EWB/ELDU,
        // intrinsics) either cannot happen mid-run or forces `probe`.
        loop {
            let block_id = match vm.trans.block_id(slot, idx) {
                Some(id) => id,
                None => {
                    vm.stats.blocks_translated += 1;
                    match translate_with_pair(vm, bus, slot, page, idx) {
                        Some(id) => id,
                        // Decoding the neighbour recycled this page's
                        // dcache slot: revalidate from the top.
                        None => break,
                    }
                }
            };
            let block = &vm.trans.slots[slot].blocks[block_id as usize];
            let (cost, watch) = (block.cost, block.watch);
            // A crossing block embeds instructions from the neighbour
            // page: its generation must still match the one it was
            // translated against (a store from a chained block, or any
            // write between runs, may have moved it).
            if watch != u64::MAX
                && bus.exec_page_generation(watch) != Some(vm.trans.slots[slot].dep_gen)
            {
                vm.trans.drop_dep(slot);
                continue;
            }
            if fuel < cost {
                // Less fuel than one block: the interpreter finishes the
                // run with exact per-instruction OutOfFuel semantics.
                vm.pc = page + idx as u64 * INSTR_SIZE;
                match vm.run_interp(bus, fuel, false) {
                    InterpOutcome::Done(r) => return r,
                    InterpOutcome::Retranslate { .. } => unreachable!("bail disabled"),
                }
            }
            fuel -= cost;
            vm.stats.blocks_entered += 1;
            let block = &vm.trans.slots[slot].blocks[block_id as usize];
            match exec_block(&block.ops, page, watch, &mut vm.regs, bus) {
                BlockExit::Seq { next, probe, consumed } => {
                    fuel += cost - consumed;
                    vm.retired += consumed;
                    vm.stats.trans_retired += consumed;
                    vm.pc = next;
                    if !probe && next & !PAGE_MASK == page && next & (INSTR_SIZE - 1) == 0 {
                        idx = ((next & PAGE_MASK) >> 3) as usize;
                        continue;
                    }
                    break;
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
                    break;
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
            }
        }
    }
}
