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
use elide_vm::mem::{FlatMemory, VmFault};

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
            // (chunked copies, fuel charging, decode-cache revalidation); raw
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
