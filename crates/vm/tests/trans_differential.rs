//! Differential testing of the superblock translator: randomized EV64
//! programs — including self-modifying stores into their own code page,
//! undecodable bytes, wild branches and fuel exhaustion — are executed
//! twice on identical memory images, once under [`Engine::Interp`] and
//! once under [`Engine::Superblock`]. Architectural state after the run
//! (registers, pc, retired count, exit/fault) must be bit-identical:
//! the translator is an optimization, never a semantic.
//!
//! A deterministic coherence test additionally pins down the mid-run
//! invalidation story: a store into the page of the currently executing
//! superblock must take effect for the very next visit of the patched
//! instruction.

use elide_vm::interp::{Engine, Exit, Vm};
use elide_vm::isa::{Instr, Opcode};
use elide_vm::mem::{Bus, FlatMemory, VmFault};

const BASE: u64 = 0x10000;
const DATA: u64 = BASE + 0x2000;
const STACK_TOP: u64 = BASE + 0x7000;
const MEM_SIZE: usize = 0x8000;
const FUEL: u64 = 30_000;

/// xorshift64* — deterministic, seedable, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn reg(&mut self) -> u8 {
        // r1..r13: r0 stays an ordinary register but keeping it out makes
        // halt payloads more interesting; r14/r15 are program base / sp.
        1 + self.below(13) as u8
    }
}

/// Knobs for the program generator: the weights steer how often each
/// hazardous construct appears so separate tests can stress one axis.
struct GenCfg {
    /// Out of 100: probability of a store aimed at the code page itself.
    self_mod: u64,
    /// Out of 100: probability of an explicitly undecodable instruction.
    illegal: u64,
    /// Out of 100: probability of a bulk intrinsic (half pinned-valid
    /// args, half whatever garbage the registers hold).
    intrin: u64,
}

fn gen_program(rng: &mut Rng, n: usize, cfg: &GenCfg) -> Vec<Instr> {
    use Opcode::*;
    let alu2 = [Add, Sub, Mul, And, Or, Xor, Shl, Shru, Shrs, Rotl32, Add32, Sub32, Mul32];
    let alui = [Addi, Andi, Ori, Xori, Shli, Shrui, Shrsi, Rotl32i, Add32i];
    let lds = [Ld8u, Ld16u, Ld32u, Ld64];
    let sts = [St8, St16, St32, St64];

    let mut prog = Vec::with_capacity(n + 1);
    while prog.len() < n {
        let i = prog.len();
        let roll = rng.below(100);
        if roll < cfg.self_mod {
            // Store into the code page: r14 holds BASE. Aligned 8-byte
            // stores early in the page can rewrite already-translated
            // instructions (including this one's own superblock).
            let off = (rng.below(64) * 8) as i32;
            prog.push(Instr::new(St64, rng.reg(), 14, 0, off));
        } else if roll < cfg.self_mod + cfg.illegal {
            // An opcode byte that does not decode; reaches the
            // IllegalInstruction path through both engines.
            prog.push(Instr::new(Illegal, 0, 0, 0, 0));
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin {
            // Bulk intrinsic. Pinned-valid args exercise the happy path
            // (chunked copies, fuel charging, code-cache revalidation); raw
            // register garbage exercises the typed-fault path. Either way
            // both engines must land on the identical outcome.
            if rng.below(2) == 0 && prog.len() + 4 <= n {
                prog.push(Instr::new(Movi, 1, 0, 0, DATA as i32));
                prog.push(Instr::new(Movi, 2, 0, 0, (DATA + 0x1000) as i32));
                prog.push(Instr::new(Movi, 3, 0, 0, 1 + rng.below(256) as i32));
                let idx = [9, 10, 11][rng.below(3) as usize];
                prog.push(Instr::new(Intrin, 0, 0, 0, idx));
            } else {
                prog.push(Instr::new(Intrin, 0, 0, 0, rng.below(16) as i32));
            }
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin + 34 {
            let op = alu2[rng.below(alu2.len() as u64) as usize];
            prog.push(Instr::new(op, rng.reg(), rng.reg(), rng.reg(), 0));
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin + 50 {
            let op = alui[rng.below(alui.len() as u64) as usize];
            prog.push(Instr::new(op, rng.reg(), rng.reg(), 0, rng.next() as i32));
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin + 58 {
            // Constant materialization: movi (+ movhi) — the LImm fusion.
            let d = rng.reg();
            prog.push(Instr::new(Movi, d, 0, 0, rng.next() as i32));
            if rng.below(2) == 0 && prog.len() < n {
                prog.push(Instr::new(Movhi, d, 0, 0, rng.next() as i32));
            }
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin + 68 {
            // Data load: r13 is pinned to DATA each iteration below.
            let op = lds[rng.below(lds.len() as u64) as usize];
            prog.push(Instr::new(op, rng.reg(), 13, 0, rng.below(0xFF0) as i32));
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin + 76 {
            let op = sts[rng.below(sts.len() as u64) as usize];
            prog.push(Instr::new(op, rng.reg(), 13, 0, rng.below(0xFF0) as i32));
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin + 88 {
            // Conditional branch to a random in-program slot (forward or
            // backward — backward edges exercise the loop-unroll side
            // exits, forward ones the taken exits).
            let branches = [Beq, Bne, Bltu, Bgeu, Blts, Bges];
            let op = branches[rng.below(6) as usize];
            let target = rng.below(n as u64) as i64;
            let imm = (target - (i as i64 + 1)) * 8;
            prog.push(Instr::new(op, rng.reg(), rng.reg(), 0, imm as i32));
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin + 92 {
            let target = rng.below(n as u64) as i64;
            let imm = (target - (i as i64 + 1)) * 8;
            prog.push(Instr::new(Jmp, 0, 0, 0, imm as i32));
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin + 96 {
            // Call a forward slot; the matching ret (if ever reached)
            // exercises the RetHop guard against a possibly-clobbered
            // return slot.
            let target = (i as u64 + 1 + rng.below(8)).min(n as u64 - 1) as i64;
            let imm = (target - (i as i64 + 1)) * 8;
            prog.push(Instr::new(Call, 0, 0, 0, imm as i32));
        } else if roll < cfg.self_mod + cfg.illegal + cfg.intrin + 98 {
            prog.push(Instr::new(Ret, 0, 0, 0, 0));
        } else {
            // Pin the anchors mid-stream so wild ALU results do not leave
            // every load faulting forever: r13 = DATA, r15 = stack.
            prog.push(Instr::new(Movi, 13, 0, 0, DATA as i32));
        }
    }
    prog.push(Instr::new(Halt, 0, 0, 0, 0));
    prog
}

fn load_image(prog: &[Instr], seed: u64) -> FlatMemory {
    let mut mem = FlatMemory::new(BASE, MEM_SIZE);
    for (i, ins) in prog.iter().enumerate() {
        mem.write_at(BASE + i as u64 * 8, &ins.encode());
    }
    // Deterministic non-zero data for loads to chew on.
    let mut rng = Rng(seed | 1);
    for w in 0..0x200u64 {
        mem.write_at(DATA + w * 8, &rng.next().to_le_bytes());
    }
    mem
}

/// Runs `prog` under `engine` on a fresh copy of the image and returns the
/// complete observable outcome.
fn run_one(
    prog: &[Instr],
    seed: u64,
    engine: Engine,
) -> (Result<Exit, VmFault>, [u64; 16], u64, u64) {
    let mut mem = load_image(prog, seed);
    let mut vm = Vm::new(BASE);
    vm.set_engine(engine);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    for r in 1..13 {
        vm.regs[r] = rng.next();
    }
    vm.regs[13] = DATA;
    vm.regs[14] = BASE;
    vm.regs[15] = STACK_TOP;
    let res = vm.run(&mut mem, FUEL);
    (res, vm.regs, vm.pc, vm.retired)
}

fn assert_agree(prog: &[Instr], seed: u64) {
    let (ri, regs_i, pc_i, ret_i) = run_one(prog, seed, Engine::Interp);
    let (rs, regs_s, pc_s, ret_s) = run_one(prog, seed, Engine::Superblock);
    assert_eq!(ri, rs, "exit/fault diverged (seed {seed:#x})");
    assert_eq!(ret_i, ret_s, "retired count diverged (seed {seed:#x})");
    assert_eq!(pc_i, pc_s, "pc diverged (seed {seed:#x})");
    assert_eq!(regs_i, regs_s, "registers diverged (seed {seed:#x})");
}

#[test]
fn random_programs_agree() {
    let cfg = GenCfg { self_mod: 2, illegal: 1, intrin: 0 };
    for case in 0..400u64 {
        let seed = 0xE1DE_0000 + case;
        let mut rng = Rng(seed.wrapping_mul(0x6C62_272E_07BB_0142) | 1);
        let n = 24 + rng.below(180) as usize;
        let prog = gen_program(&mut rng, n, &cfg);
        assert_agree(&prog, seed);
    }
}

#[test]
fn self_modifying_programs_agree() {
    // Heavy self-modification: every ~8th instruction rewrites the code
    // page, so translated blocks are invalidated (and re-translated)
    // constantly, often from inside themselves.
    let cfg = GenCfg { self_mod: 12, illegal: 2, intrin: 0 };
    for case in 0..200u64 {
        let seed = 0x5E1F_0000 + case;
        let mut rng = Rng(seed.wrapping_mul(0x6C62_272E_07BB_0142) | 1);
        let n = 24 + rng.below(120) as usize;
        let prog = gen_program(&mut rng, n, &cfg);
        assert_agree(&prog, seed);
    }
}

#[test]
fn raw_byte_soup_agrees() {
    // No structure at all: random bytes, many of which do not decode.
    // Both engines must report the identical IllegalInstruction address.
    for case in 0..100u64 {
        let seed = 0xB17E_0000 + case;
        let mut rng = Rng(seed | 1);
        let mut mem_bytes = Vec::new();
        for _ in 0..64 {
            mem_bytes.extend_from_slice(&rng.next().to_le_bytes());
        }
        let run = |engine: Engine| {
            let mut mem = FlatMemory::new(BASE, MEM_SIZE);
            mem.write_at(BASE, &mem_bytes);
            let mut vm = Vm::new(BASE);
            vm.set_engine(engine);
            vm.regs[13] = DATA;
            vm.regs[15] = STACK_TOP;
            let res = vm.run(&mut mem, FUEL);
            (res, vm.regs, vm.pc, vm.retired)
        };
        assert_eq!(run(Engine::Interp), run(Engine::Superblock), "seed {seed:#x}");
    }
}

/// A loop whose body stores into its own code page, overwriting one of its
/// own instructions mid-run: iteration 0 executes the original `addi r1 += 1`,
/// every later iteration must see the patched `addi r1 += 100`. Exactness
/// here *is* the translator's invalidation story — a stale superblock would
/// keep adding 1.
#[test]
fn own_page_store_invalidates_mid_run() {
    use Opcode::*;
    // r2 = loop counter, r1 = accumulator, r3 = patched instruction bits,
    // r14 = BASE.
    let patched = Instr::new(Addi, 1, 1, 0, 100);
    let prog = [
        // idx 0: r3 = encoded patch (materialized from memory at DATA).
        Instr::new(Ld64, 3, 13, 0, 0),
        // idx 1: loop head — addi r1, r1, 1  <-- patch target
        Instr::new(Addi, 1, 1, 0, 1),
        // idx 2: store r3 over idx 1 (own page, possibly own block).
        Instr::new(St64, 3, 14, 0, 8),
        // idx 3: r2 -= 1 via addi -1
        Instr::new(Addi, 2, 2, 0, -1),
        // idx 4: loop while r0 < r2
        Instr::new(Bltu, 0, 2, 0, -(4 * 8)),
        Instr::new(Halt, 0, 0, 0, 0),
    ];
    for engine in [Engine::Interp, Engine::Superblock] {
        let mut mem = FlatMemory::new(BASE, MEM_SIZE);
        for (i, ins) in prog.iter().enumerate() {
            mem.write_at(BASE + i as u64 * 8, &ins.encode());
        }
        mem.write_at(DATA, &patched.encode());
        let mut vm = Vm::new(BASE);
        vm.set_engine(engine);
        vm.regs[2] = 10;
        vm.regs[13] = DATA;
        vm.regs[14] = BASE;
        vm.regs[15] = STACK_TOP;
        let exit = vm.run(&mut mem, FUEL).expect("run");
        assert_eq!(exit, Exit::Halt(0));
        // Iteration 1 adds 1 (pre-patch), iterations 2..=10 add 100 each.
        assert_eq!(vm.regs[1], 1 + 9 * 100, "stale superblock under {engine:?}");
    }
}

/// The counters satellite: a hot loop must actually retire through the
/// translated tier, and the same program under `Engine::Interp` must not.
#[test]
fn stats_attribute_retirement_to_the_right_tier() {
    use Opcode::*;
    let prog = [
        Instr::new(Movi, 1, 0, 0, 0),
        Instr::new(Add, 3, 3, 1, 0),
        Instr::new(Xor, 4, 4, 3, 0),
        Instr::new(Addi, 1, 1, 0, 1),
        Instr::new(Bltu, 1, 2, 0, -(3 * 8)),
        Instr::new(Halt, 0, 0, 0, 0),
    ];
    let run = |engine: Engine| {
        let mut mem = FlatMemory::new(BASE, MEM_SIZE);
        for (i, ins) in prog.iter().enumerate() {
            mem.write_at(BASE + i as u64 * 8, &ins.encode());
        }
        let mut vm = Vm::new(BASE);
        vm.set_engine(engine);
        vm.regs[2] = 1000;
        vm.run(&mut mem, FUEL).expect("run");
        (vm.stats, vm.retired)
    };

    let (sb, retired) = run(Engine::Superblock);
    assert!(sb.blocks_entered > 0, "no superblock was ever entered");
    assert!(sb.blocks_translated > 0, "no superblock was ever translated");
    assert!(
        sb.blocks_entered > sb.blocks_translated,
        "translated blocks were never reused: {sb:?}"
    );
    assert_eq!(sb.trans_retired + sb.interp_retired, retired, "tier attribution must sum");
    assert!(
        sb.trans_retired >= retired * 9 / 10,
        "a straight hot loop should retire ≥90% translated: {sb:?}"
    );

    let (it, retired_i) = run(Engine::Interp);
    assert_eq!(it.blocks_entered, 0);
    assert_eq!(it.trans_retired, 0);
    assert_eq!(it.interp_retired, retired_i);
}

/// Random programs peppered with bulk intrinsics — pinned-valid sequences
/// and raw garbage alike — agree across engines, including the extra fuel
/// the intrinsics charge into the retired counter and the typed faults
/// their argument checks raise.
#[test]
fn intrinsic_programs_agree() {
    let cfg = GenCfg { self_mod: 3, illegal: 1, intrin: 8 };
    for case in 0..300u64 {
        let seed = 0x147E_0000 + case;
        let mut rng = Rng(seed.wrapping_mul(0x6C62_272E_07BB_0142) | 1);
        let n = 24 + rng.below(140) as usize;
        let prog = gen_program(&mut rng, n, &cfg);
        assert_agree(&prog, seed);
    }
}

/// A store must be visible to the very next load, under both engines. The
/// two leading loads are the pattern that once promoted DATA's page into a
/// copying data TLB; loads and stores now share one path over the bus, and
/// the test keeps that path honest.
#[test]
fn dtlb_write_through_is_coherent() {
    use Opcode::*;
    let prog = [
        // Two consecutive loads promote DATA's page into the TLB.
        Instr::new(Ld64, 1, 13, 0, 0),
        Instr::new(Ld64, 1, 13, 0, 0),
        Instr::new(Movi, 2, 0, 0, 77),
        Instr::new(St64, 2, 13, 0, 0),
        Instr::new(Ld64, 3, 13, 0, 0),
        Instr::new(Halt, 0, 0, 0, 0),
    ];
    for engine in [Engine::Interp, Engine::Superblock] {
        let mut mem = load_image(&prog, 1);
        let mut vm = Vm::new(BASE);
        vm.set_engine(engine);
        vm.regs[13] = DATA;
        vm.regs[15] = STACK_TOP;
        vm.run(&mut mem, FUEL).expect("run");
        assert_eq!(vm.regs[3], 77, "stale TLB read under {engine:?}");
    }
}

/// A bulk intrinsic that rewrites a page the guest has just loaded from
/// must leave nothing stale behind: the next load reads the fresh bytes.
/// The two leading loads are the pattern that once promoted the page into
/// a copying data TLB, which then had to be revalidated after every
/// intrinsic; loads now read the bus directly.
#[test]
fn intrinsic_stores_invalidate_cached_pages() {
    use Opcode::*;
    let prog = [
        // Promote DATA's page.
        Instr::new(Ld64, 4, 13, 0, 0),
        Instr::new(Ld64, 4, 13, 0, 0),
        // memset(DATA, 0x5A, 64) behind the TLB's back.
        Instr::new(Movi, 1, 0, 0, DATA as i32),
        Instr::new(Movi, 2, 0, 0, 0x5A),
        Instr::new(Movi, 3, 0, 0, 64),
        Instr::new(Intrin, 0, 0, 0, 10),
        Instr::new(Ld64, 5, 13, 0, 0),
        Instr::new(Halt, 0, 0, 0, 0),
    ];
    for engine in [Engine::Interp, Engine::Superblock] {
        let mut mem = load_image(&prog, 1);
        let mut vm = Vm::new(BASE);
        vm.set_engine(engine);
        vm.regs[13] = DATA;
        vm.regs[15] = STACK_TOP;
        vm.run(&mut mem, FUEL).expect("run");
        assert_ne!(vm.regs[4], 0x5A5A_5A5A_5A5A_5A5A, "pre-set data was already 0x5A");
        assert_eq!(vm.regs[5], 0x5A5A_5A5A_5A5A_5A5A, "TLB served stale bytes under {engine:?}");
    }
}

/// Bulk fuel is charged into `retired` identically in both engines and
/// scales exactly with the byte count: two MEMCPYs differing only in
/// length retire exactly `bulk_fuel` apart.
#[test]
fn intrinsic_fuel_is_charged_per_byte() {
    use elide_vm::isa::intrinsics::bulk_fuel;
    use Opcode::*;
    let run = |len: i32, engine: Engine| {
        let prog = [
            Instr::new(Movi, 1, 0, 0, DATA as i32),
            Instr::new(Movi, 2, 0, 0, (DATA + 0x1000) as i32),
            Instr::new(Movi, 3, 0, 0, len),
            Instr::new(Intrin, 0, 0, 0, 9),
            Instr::new(Halt, 0, 0, 0, 0),
        ];
        let mut mem = load_image(&prog, 1);
        let mut vm = Vm::new(BASE);
        vm.set_engine(engine);
        vm.regs[15] = STACK_TOP;
        vm.run(&mut mem, FUEL).expect("run");
        vm.retired
    };
    for engine in [Engine::Interp, Engine::Superblock] {
        let small = run(8, engine);
        let big = run(1024, engine);
        assert_eq!(
            big - small,
            bulk_fuel(1024) - bulk_fuel(8),
            "bulk fuel attribution wrong under {engine:?}"
        );
    }
    assert_eq!(run(512, Engine::Interp), run(512, Engine::Superblock));
}

/// Fuel exhaustion must cut an intrinsic off at the same boundary in both
/// engines: an intrin whose bulk charge exceeds the remaining fuel faults
/// with OutOfFuel before any extra work is accounted.
#[test]
fn intrinsic_fuel_exhaustion_agrees() {
    use Opcode::*;
    let prog = [
        Instr::new(Movi, 1, 0, 0, DATA as i32),
        Instr::new(Movi, 2, 0, 0, (DATA + 0x1000) as i32),
        Instr::new(Movi, 3, 0, 0, 1024),
        Instr::new(Intrin, 0, 0, 0, 9),
        Instr::new(Halt, 0, 0, 0, 0),
    ];
    // bulk_fuel(1024) = 128 extra on top of 4 instructions: probe fuel
    // values straddling every boundary.
    for fuel in [0u64, 3, 4, 5, 100, 131, 132, 133, 200] {
        let run = |engine: Engine| {
            let mut mem = load_image(&prog, 1);
            let mut vm = Vm::new(BASE);
            vm.set_engine(engine);
            vm.regs[15] = STACK_TOP;
            let res = vm.run(&mut mem, fuel);
            (res, vm.pc, vm.retired)
        };
        assert_eq!(run(Engine::Interp), run(Engine::Superblock), "fuel={fuel}");
    }
}

/// Fuel exhaustion must fault at the same instruction boundary under both
/// tiers (block-granular accounting refunds unconsumed fuel on side exits,
/// so the terminal OutOfFuel point is identical).
#[test]
fn fuel_exhaustion_agrees() {
    use Opcode::*;
    let prog =
        [Instr::new(Addi, 1, 1, 0, 1), Instr::new(Jmp, 0, 0, 0, -16), Instr::new(Halt, 0, 0, 0, 0)];
    for fuel in [0u64, 1, 2, 3, 7, 100, 101, 1001] {
        let run = |engine: Engine| {
            let mut mem = FlatMemory::new(BASE, MEM_SIZE);
            for (i, ins) in prog.iter().enumerate() {
                mem.write_at(BASE + i as u64 * 8, &ins.encode());
            }
            let mut vm = Vm::new(BASE);
            vm.set_engine(engine);
            let res = vm.run(&mut mem, fuel);
            (res, vm.regs[1], vm.pc, vm.retired)
        };
        assert_eq!(run(Engine::Interp), run(Engine::Superblock), "fuel={fuel}");
    }
}

// ---------------------------------------------------------------------------
// Multi-page programs: code laid over three pages, so traces, chains and
// invalidation all cross page boundaries.
// ---------------------------------------------------------------------------

/// Code pages of a multi-page program, from `BASE`.
const MP_PAGES: usize = 3;
/// Instruction slots per page.
const SLOTS: usize = 512;
/// Data for multi-page programs: clear of the code pages and the stack.
const MP_DATA: u64 = BASE + 0x4000;
/// Offset from `MP_DATA` of the table of encoded patch instructions.
const PATCHES: u64 = 0x800;

/// One function of a multi-page program: where it starts and how many
/// slots it spans.
struct Func {
    start: usize,
    len: usize,
}

/// Lays a random program over [`MP_PAGES`] pages. `main` on page 0 calls
/// four functions in a loop. Two of them straddle a page boundary and
/// every function runs a counted loop whose back-edge may therefore cross
/// pages. Bodies mix ALU work, data loads and stores, forward branches and
/// jumps, calls to later functions (direct and through `callr`), tail
/// jumps, stores that patch an instruction of a function on another page
/// — with a valid encoded `addi` (so the patch runs), or with register
/// garbage when `garbage` is set — and MEMCPY intrinsics that patch any
/// function. Returns one instruction per slot; unused slots stay illegal.
fn gen_multipage(rng: &mut Rng, garbage: bool) -> Vec<Instr> {
    use Opcode::*;
    let alu2 = [Add, Sub, Mul, And, Or, Xor, Shl, Shru, Rotl32, Add32, Sub32];
    let alui = [Addi, Andi, Ori, Xori, Shli, Shrui, Rotl32i, Add32i];
    // Registers: r1..r5 scratch, r6 = 1 << 32 (one step of an encoded
    // immediate), r7 patch value, r8 zero, r9..r12 loop counters of
    // f0..f3, r0 main's counter, r13 data, r14 BASE, r15 sp.
    let scratch = |rng: &mut Rng| 1 + rng.below(5) as u8;
    let src = |rng: &mut Rng| 1 + rng.below(8) as u8;

    let lens: Vec<usize> = (0..4).map(|_| 16 + rng.below(40) as usize).collect();
    let funcs = [
        // f0 straddles the page 0/1 boundary.
        Func { start: SLOTS - 4 - rng.below(lens[0] as u64 - 8) as usize, len: lens[0] },
        // f1 sits inside page 1.
        Func { start: SLOTS + 150 + rng.below(100) as usize, len: lens[1] },
        // f2 straddles the page 1/2 boundary.
        Func { start: 2 * SLOTS - 4 - rng.below(lens[2] as u64 - 8) as usize, len: lens[2] },
        // f3 sits inside page 2.
        Func { start: 2 * SLOTS + 200 + rng.below(100) as usize, len: lens[3] },
    ];
    let mut l = Layout { prog: vec![Instr::new(Illegal, 0, 0, 0, 0); MP_PAGES * SLOTS], at: 0 };
    let page_of = |slot: usize| slot / SLOTS;

    // main: r8 = 0, r0 = loop count, call each function, loop, halt.
    l.put(Instr::new(Movi, 8, 0, 0, 0));
    l.put(Instr::new(Movi, 0, 0, 0, 1 + rng.below(3) as i32));
    let head = l.at;
    for _ in 0..2 + rng.below(4) {
        let f = &funcs[rng.below(4) as usize];
        l.put(Instr::new(Call, 0, 0, 0, l.rel(f.start)));
    }
    l.put(Instr::new(Addi, 0, 0, 0, -1));
    l.put(Instr::new(Bne, 0, 8, 0, l.rel(head)));
    l.put(Instr::new(Halt, 0, 0, 0, 0));

    // Slots a patch may target: plain ALU slots of each function.
    let mut patchable: Vec<Vec<usize>> = vec![Vec::new(); 4];
    // Patch stores to resolve once every function is laid out:
    // (store slot, storing function).
    let mut patch_sites: Vec<(usize, usize)> = Vec::new();
    // MEMCPY patches to resolve: the slot of their destination `movi`.
    let mut memcpy_sites: Vec<usize> = Vec::new();
    for (fi, f) in funcs.iter().enumerate() {
        let ctr = 9 + fi as u8;
        let end = f.start + f.len;
        l.at = f.start;
        l.put(Instr::new(Movi, ctr, 0, 0, 1 + rng.below(3) as i32));
        let head = l.at;
        // The loop tail: counter step, back-edge, ret.
        let body_end = end - 3;
        while l.at < body_end {
            let room = body_end - l.at;
            let roll = rng.below(100);
            if roll < 30 {
                let op = alu2[rng.below(alu2.len() as u64) as usize];
                patchable[fi].push(l.at);
                l.put(Instr::new(op, scratch(rng), src(rng), src(rng), 0));
            } else if roll < 45 {
                let op = alui[rng.below(alui.len() as u64) as usize];
                patchable[fi].push(l.at);
                l.put(Instr::new(op, scratch(rng), src(rng), 0, rng.next() as i32));
            } else if roll < 55 {
                let op = [Ld8u, Ld32u, Ld64][rng.below(3) as usize];
                l.put(Instr::new(op, scratch(rng), 13, 0, rng.below(0x7F0) as i32));
            } else if roll < 62 {
                let op = [St8, St32, St64][rng.below(3) as usize];
                l.put(Instr::new(op, src(rng), 13, 0, rng.below(0x7F0) as i32));
            } else if roll < 72 && room >= 4 {
                // Patch another function's instruction. A table patch
                // bumps its entry's immediate afterwards, so every run of
                // the site writes code that behaves differently.
                if garbage && rng.below(2) == 0 {
                    l.put(Instr::new(Mov, 7, src(rng), 0, 0));
                    patch_sites.push((l.at, fi));
                    l.put(Instr::new(St64, 7, 14, 0, 0));
                } else {
                    let t = PATCHES as i32 + rng.below(16) as i32 * 8;
                    l.put(Instr::new(Ld64, 7, 13, 0, t));
                    patch_sites.push((l.at, fi));
                    l.put(Instr::new(St64, 7, 14, 0, 0));
                    l.put(Instr::new(Add, 7, 7, 6, 0));
                    l.put(Instr::new(St64, 7, 13, 0, t));
                }
            } else if roll < 75 && room >= 4 {
                // Patch through the MEMCPY intrinsic: any function's
                // instruction, this one's included.
                let t = PATCHES as i32 + rng.below(16) as i32 * 8;
                memcpy_sites.push(l.at);
                l.put(Instr::new(Movi, 1, 0, 0, 0));
                l.put(Instr::new(Movi, 2, 0, 0, (MP_DATA as i32) + t));
                l.put(Instr::new(Movi, 3, 0, 0, 8));
                l.put(Instr::new(Intrin, 0, 0, 0, 9));
            } else if roll < 80 {
                // Forward branch inside the body.
                let op = [Beq, Bne, Bltu, Bgeu][rng.below(4) as usize];
                let to = l.at + 1 + rng.below((body_end - l.at) as u64) as usize;
                l.put(Instr::new(op, src(rng), src(rng), 0, l.rel(to)));
            } else if roll < 84 {
                let to = l.at + 1 + rng.below((body_end - l.at) as u64) as usize;
                l.put(Instr::new(Jmp, 0, 0, 0, l.rel(to)));
            } else if roll < 92 && fi < 3 {
                // Call a later function (no recursion).
                let g = &funcs[fi + 1 + rng.below(3 - fi as u64) as usize];
                l.put(Instr::new(Call, 0, 0, 0, l.rel(g.start)));
            } else if roll < 95 && fi < 3 && room >= 2 {
                // The same call, through a register.
                let g = &funcs[fi + 1 + rng.below(3 - fi as u64) as usize];
                let target = BASE + g.start as u64 * 8;
                l.put(Instr::new(Movi, 7, 0, 0, target as i32));
                l.put(Instr::new(Callr, 0, 7, 0, 0));
            } else if roll < 97 && fi < 3 {
                // Tail jump into a later function: its ret returns to
                // this function's caller.
                let g = &funcs[fi + 1 + rng.below(3 - fi as u64) as usize];
                l.put(Instr::new(Jmp, 0, 0, 0, l.rel(g.start)));
            } else {
                patchable[fi].push(l.at);
                l.put(Instr::new(Movi, scratch(rng), 0, 0, rng.next() as i32));
            }
        }
        l.put(Instr::new(Addi, ctr, ctr, 0, -1));
        l.put(Instr::new(Bne, ctr, 8, 0, l.rel(head)));
        l.put(Instr::new(Ret, 0, 0, 0, 0));
    }
    // Aim each patch store at an ALU slot of a function on another page.
    for (site, fi) in patch_sites {
        let targets: Vec<usize> = (0..4)
            .filter(|&g| g != fi)
            .flat_map(|g| patchable[g].iter().copied())
            .filter(|&t| page_of(t) != page_of(site))
            .collect();
        if targets.is_empty() {
            continue;
        }
        let t = targets[rng.below(targets.len() as u64) as usize];
        l.prog[site].imm = (t * 8) as i32;
    }
    let targets: Vec<usize> = patchable.concat();
    for site in memcpy_sites {
        let t = targets[rng.below(targets.len() as u64) as usize];
        l.prog[site].imm = (BASE + t as u64 * 8) as i32;
    }
    l.prog
}

/// A program image being laid out slot by slot.
struct Layout {
    prog: Vec<Instr>,
    /// The next slot to fill.
    at: usize,
}

impl Layout {
    fn put(&mut self, ins: Instr) {
        self.prog[self.at] = ins;
        self.at += 1;
    }

    /// The branch offset from the next slot to fill to `to`.
    fn rel(&self, to: usize) -> i32 {
        ((to as i64 - (self.at as i64 + 1)) * 8) as i32
    }
}

/// A [`FlatMemory`] that reports no code epoch, like an enclave under an
/// EPC budget: the superblock engine must then probe every page it enters
/// and every other page a block lowered.
struct NoEpoch(FlatMemory);

impl Bus for NoEpoch {
    fn load(&mut self, addr: u64, size: usize) -> Result<u64, VmFault> {
        self.0.load(addr, size)
    }

    fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), VmFault> {
        self.0.store(addr, size, value)
    }

    fn fetch(&mut self, addr: u64) -> Result<[u8; 8], VmFault> {
        self.0.fetch(addr)
    }

    fn intrinsic(&mut self, index: i32, regs: &mut [u64; 16]) -> Result<u64, VmFault> {
        self.0.intrinsic(index, regs)
    }

    fn exec_page_generation(&mut self, page_addr: u64) -> Option<u64> {
        self.0.exec_page_generation(page_addr)
    }

    fn fetch_exec_page(&mut self, page_addr: u64, buf: &mut [u8; 4096]) -> Result<u64, VmFault> {
        self.0.fetch_exec_page(page_addr, buf)
    }
}

/// How a multi-page program runs: the engine, and for superblocks whether
/// the bus reports a code epoch.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Interp,
    Superblock,
    SuperblockNoEpoch,
}

/// Runs a multi-page program in `mode`: registers, pc, retired count and
/// exit, plus every byte of memory (the patches land in code).
fn run_multipage(
    prog: &[Instr],
    seed: u64,
    mode: Mode,
) -> (Result<Exit, VmFault>, [u64; 16], u64, u64, Vec<u8>) {
    use Opcode::*;
    let mut mem = FlatMemory::new(BASE, MEM_SIZE);
    for (i, ins) in prog.iter().enumerate() {
        mem.write_at(BASE + i as u64 * 8, &ins.encode());
    }
    let mut rng = Rng(seed | 1);
    for w in 0..0x100u64 {
        mem.write_at(MP_DATA + w * 8, &rng.next().to_le_bytes());
    }
    for t in 0..16u64 {
        let a = 1 + rng.below(6) as u8;
        let patch = Instr::new(Addi, a, a, 0, rng.below(1000) as i32 + 1);
        mem.write_at(MP_DATA + PATCHES + t * 8, &patch.encode());
    }
    let mut vm = Vm::new(BASE);
    vm.set_engine(match mode {
        Mode::Interp => Engine::Interp,
        Mode::Superblock | Mode::SuperblockNoEpoch => Engine::Superblock,
    });
    for r in 1..8 {
        vm.regs[r] = rng.next();
    }
    vm.regs[6] = 1 << 32;
    vm.regs[13] = MP_DATA;
    vm.regs[14] = BASE;
    vm.regs[15] = STACK_TOP;
    let res = match mode {
        Mode::SuperblockNoEpoch => {
            let mut bus = NoEpoch(mem);
            let res = vm.run(&mut bus, FUEL);
            mem = bus.0;
            res
        }
        _ => vm.run(&mut mem, FUEL),
    };
    (res, vm.regs, vm.pc, vm.retired, mem.read_at(BASE, MEM_SIZE).to_vec())
}

fn assert_multipage_agree(prog: &[Instr], seed: u64) {
    let (ri, regs_i, pc_i, ret_i, mem_i) = run_multipage(prog, seed, Mode::Interp);
    for mode in [Mode::Superblock, Mode::SuperblockNoEpoch] {
        let (rs, regs_s, pc_s, ret_s, mem_s) = run_multipage(prog, seed, mode);
        assert_eq!(ri, rs, "exit/fault diverged (seed {seed:#x}, {mode:?})");
        assert_eq!(ret_i, ret_s, "retired count diverged (seed {seed:#x}, {mode:?})");
        assert_eq!(pc_i, pc_s, "pc diverged (seed {seed:#x}, {mode:?})");
        assert_eq!(regs_i, regs_s, "registers diverged (seed {seed:#x}, {mode:?})");
        assert!(mem_i == mem_s, "memory diverged (seed {seed:#x}, {mode:?})");
    }
}

#[test]
fn multipage_programs_agree() {
    for case in 0..300u64 {
        let seed = 0x3A6E_0000 + case;
        let mut rng = Rng(seed.wrapping_mul(0x6C62_272E_07BB_0142) | 1);
        let prog = gen_multipage(&mut rng, false);
        assert_multipage_agree(&prog, seed);
    }
}

#[test]
fn multipage_programs_with_garbage_patches_agree() {
    // Half the cross-page patches write register garbage: the patched
    // function may then fault, branch wild or run off its end.
    for case in 0..200u64 {
        let seed = 0x6A4B_0000 + case;
        let mut rng = Rng(seed.wrapping_mul(0x6C62_272E_07BB_0142) | 1);
        let prog = gen_multipage(&mut rng, true);
        assert_multipage_agree(&prog, seed);
    }
}

/// Writes `code` as `(slot, instruction)` pairs into a fresh memory image.
fn image(code: &[(usize, Instr)]) -> FlatMemory {
    let mut mem = FlatMemory::new(BASE, MEM_SIZE);
    for &(slot, ins) in code {
        mem.write_at(BASE + slot as u64 * 8, &ins.encode());
    }
    mem
}

/// A loop that straddles the page 1/2 boundary and calls a helper on
/// page 0 every iteration. Page boundaries must not cut the loop into
/// blocks: the trace follows the call and the back-edge across pages and
/// unrolls, so the superblocks entered stay far below one per iteration
/// (a trace confined to one page pair entered two per iteration).
#[test]
fn straddling_loop_stays_in_one_trace() {
    use Opcode::*;
    const H: usize = 200;
    const L: usize = 2 * SLOTS - 4;
    let code = [
        (0, Instr::new(Movi, 8, 0, 0, 0)),
        (1, Instr::new(Jmp, 0, 0, 0, ((L as i64 - 2) * 8) as i32)),
        // Helper on page 0.
        (H, Instr::new(Addi, 1, 1, 0, 1)),
        (H + 1, Instr::new(Ret, 0, 0, 0, 0)),
        // The loop: head on page 1, tail and back-edge on page 2.
        (L, Instr::new(Addi, 3, 3, 0, 3)),
        (L + 1, Instr::new(Call, 0, 0, 0, ((H as i64 - (L as i64 + 2)) * 8) as i32)),
        (L + 2, Instr::new(Addi, 4, 4, 0, 1)),
        (L + 3, Instr::new(Xor, 5, 5, 3, 0)),
        (L + 4, Instr::new(Addi, 2, 2, 0, -1)),
        (L + 5, Instr::new(Bne, 2, 8, 0, -6 * 8)),
        (L + 6, Instr::new(Halt, 0, 0, 0, 0)),
    ];
    let run = |engine: Engine, iters: u64| {
        let mut mem = image(&code);
        let mut vm = Vm::new(BASE);
        vm.set_engine(engine);
        vm.regs[2] = iters;
        vm.regs[15] = STACK_TOP;
        let exit = vm.run(&mut mem, 100_000).expect("run");
        assert_eq!(exit, Exit::Halt(0));
        assert_eq!(vm.regs[1], iters, "helper ran once per iteration under {engine:?}");
        assert_eq!(vm.regs[3], 3 * iters);
        (vm.stats.blocks_entered, vm.regs, vm.retired)
    };
    for iters in [1000u64, 2000] {
        let (_, regs_i, retired_i) = run(Engine::Interp, iters);
        let (blocks, regs_s, retired_s) = run(Engine::Superblock, iters);
        assert_eq!((regs_i, retired_i), (regs_s, retired_s), "engines diverged at {iters}");
        assert!(
            blocks * 10 <= iters,
            "{blocks} superblocks for {iters} iterations: page boundaries cut the loop"
        );
    }
}

/// A block on page 1 patches an instruction on page 0 that the loop
/// re-enters — once from the loop's own trace (which lowered page 0
/// through the call it follows, so the store exits `Patched`), once from a
/// function on page 2 reached through `callr` (whose block never lowered
/// page 0, so only the code epoch reports the change; it writes a new
/// immediate every run). Every iteration after a patch must run the latest
/// patch, under both engines.
#[test]
fn cross_page_store_invalidates_mid_run() {
    use Opcode::*;
    const T: usize = 300;
    const U: usize = 310;
    const L: usize = SLOTS + 100;
    const P: usize = 2 * SLOTS + 6;
    let patch_t = Instr::new(Addi, 1, 1, 0, 100);
    let patch_u = Instr::new(Addi, 4, 4, 0, 1000);
    let code = [
        (0, Instr::new(Ld64, 3, 13, 0, 0)),
        (1, Instr::new(Ld64, 5, 13, 0, 8)),
        (2, Instr::new(Movi, 6, 0, 0, (BASE + P as u64 * 8) as i32)),
        (3, Instr::new(Jmp, 0, 0, 0, ((L as i64 - 4) * 8) as i32)),
        // Two functions on page 0: T is patched from page 1, U from page 2.
        (T, Instr::new(Addi, 1, 1, 0, 1)),
        (T + 1, Instr::new(Ret, 0, 0, 0, 0)),
        (U, Instr::new(Addi, 4, 4, 0, 1)),
        (U + 1, Instr::new(Ret, 0, 0, 0, 0)),
        // The loop on page 1.
        (L, Instr::new(Call, 0, 0, 0, ((T as i64 - (L as i64 + 1)) * 8) as i32)),
        (L + 1, Instr::new(Call, 0, 0, 0, ((U as i64 - (L as i64 + 2)) * 8) as i32)),
        (L + 2, Instr::new(St64, 3, 14, 0, (T * 8) as i32)),
        (L + 3, Instr::new(Callr, 0, 6, 0, 0)),
        (L + 4, Instr::new(Addi, 2, 2, 0, -1)),
        (L + 5, Instr::new(Bne, 2, 0, 0, -6 * 8)),
        (L + 6, Instr::new(Halt, 0, 0, 0, 0)),
        // P on page 2 patches U, then bumps the patch's immediate.
        (P, Instr::new(St64, 5, 14, 0, (U * 8) as i32)),
        (P + 1, Instr::new(Movi, 7, 0, 0, 1)),
        (P + 2, Instr::new(Shli, 7, 7, 0, 32)),
        (P + 3, Instr::new(Add, 5, 5, 7, 0)),
        (P + 4, Instr::new(Ret, 0, 0, 0, 0)),
    ];
    for mode in [Mode::Interp, Mode::Superblock, Mode::SuperblockNoEpoch] {
        let mut mem = image(&code);
        mem.write_at(MP_DATA, &patch_t.encode());
        mem.write_at(MP_DATA + 8, &patch_u.encode());
        let mut vm = Vm::new(BASE);
        if let Mode::Interp = mode {
            vm.set_engine(Engine::Interp);
        }
        vm.regs[2] = 10;
        vm.regs[13] = MP_DATA;
        vm.regs[14] = BASE;
        vm.regs[15] = STACK_TOP;
        let exit = match mode {
            Mode::SuperblockNoEpoch => vm.run(&mut NoEpoch(mem), FUEL),
            _ => vm.run(&mut mem, FUEL),
        };
        assert_eq!(exit.expect("run"), Exit::Halt(0));
        // Iteration 1 runs both originals; iteration k = 2..=10 runs T's
        // patch and U's (k-2)th bump.
        assert_eq!(vm.regs[1], 1 + 9 * 100, "stale T under {mode:?}");
        assert_eq!(vm.regs[4], 1 + (1000..1009).sum::<u64>(), "stale U under {mode:?}");
    }
}
