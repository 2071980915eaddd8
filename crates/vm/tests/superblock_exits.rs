//! Exact exits for every lowered op kind: each memory kind at each access
//! width, each side-exit condition with each fused pre-op, and the control
//! kinds, run under [`Engine::Superblock`] and [`Engine::Interp`] on
//! identical images. The pc, registers, retired count, exit or fault, and
//! every byte of memory must agree.
//!
//! Every program starts with a straight-line op and a followed `jmp`, so
//! the op under test sits behind instructions its block already retired —
//! one of which lowers to no op — and an exit from it must count them.
//! Memory kinds run against a mapped address, an unmapped one, the last
//! byte of memory (only a 1-byte access fits) and an address that wraps;
//! store kinds also hit the code page their block lowered (the `Patched`
//! exit). A coverage test checks that translating this corpus emits every
//! lowered kind, so no dispatch arm goes unexercised.

use elide_vm::interp::{Engine, Exit, Vm};
use elide_vm::isa::{Instr, Opcode};
use elide_vm::mem::{FlatMemory, VmFault};
use std::collections::BTreeMap;

const BASE: u64 = 0x10000;
const DATA: u64 = BASE + 0x4000;
const STACK_TOP: u64 = BASE + 0x7000;
const MEM_SIZE: usize = 0x8000;
const END: u64 = BASE + MEM_SIZE as u64;
/// Where in-range loads read: pattern bytes, none of them zero, so each
/// access width reads a different value.
const LOADED: u64 = DATA + 0x80;
/// Where the loads of the `Patched` cases read: the patch they store.
const IN_RANGE: u64 = DATA + 0x40;
/// Below the image: every access there faults.
const UNMAPPED: u64 = 0x100;
const FUEL: u64 = 5_000;

type Regs = [u64; 16];

fn ins(op: Opcode, a: u8, b: u8, c: u8, imm: i32) -> Instr {
    Instr::new(op, a, b, c, imm)
}

/// A program: its instructions at `BASE` and the registers it starts with.
#[derive(Clone)]
struct Case {
    name: String,
    prog: Vec<Instr>,
    regs: Regs,
}

/// The instructions every case starts with: an op the block retires, and
/// a `jmp` to the next slot that the trace follows and lowers to no op.
fn prefix() -> Vec<Instr> {
    vec![ins(Opcode::Xori, 9, 9, 0, 0x5A), ins(Opcode::Jmp, 0, 0, 0, 0)]
}

/// Registers every case starts from; cases override what they use.
fn base_regs() -> Regs {
    let mut r = [0u64; 16];
    for (i, v) in r.iter_mut().enumerate() {
        *v = 0x0123_4567_89AB_CDEFu64.rotate_left(i as u32 * 7) ^ i as u64;
    }
    r[15] = STACK_TOP;
    r
}

struct Outcome {
    res: Result<Exit, VmFault>,
    regs: Regs,
    pc: u64,
    retired: u64,
    mem: Vec<u8>,
}

fn image(prog: &[Instr]) -> FlatMemory {
    let mut mem = FlatMemory::new(BASE, MEM_SIZE);
    for (i, ins) in prog.iter().enumerate() {
        mem.write_at(BASE + i as u64 * 8, &ins.encode());
    }
    for w in 0..0x200u64 {
        let v = (w + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        mem.write_at(DATA + w * 8, &v.to_le_bytes());
    }
    // What the in-range loads read: the patch a `Patched` store writes.
    mem.write_at(IN_RANGE, &patch().encode());
    mem
}

/// Runs `case` under `engine`; returns the outcome and the VM (for its
/// code cache).
fn run(case: &Case, engine: Engine) -> (Outcome, Vm) {
    let mut mem = image(&case.prog);
    let mut vm = Vm::new(BASE);
    vm.set_engine(engine);
    vm.regs = case.regs;
    let res = vm.run(&mut mem, FUEL);
    let out = Outcome {
        res,
        regs: vm.regs,
        pc: vm.pc,
        retired: vm.retired,
        mem: mem.read_at(BASE, MEM_SIZE).to_vec(),
    };
    (out, vm)
}

/// Runs `case` under both engines, asserts they agree, and returns the
/// reference outcome and the superblock VM.
fn agree(case: &Case) -> (Outcome, Vm) {
    let (i, _) = run(case, Engine::Interp);
    let (s, vm) = run(case, Engine::Superblock);
    let name = &case.name;
    assert_eq!(i.res, s.res, "{name}: exit/fault diverged");
    assert_eq!(i.retired, s.retired, "{name}: retired count diverged");
    assert_eq!(i.pc, s.pc, "{name}: pc diverged");
    assert_eq!(i.regs, s.regs, "{name}: registers diverged");
    assert!(i.mem == s.mem, "{name}: memory diverged");
    assert!(vm.stats.blocks_entered > 0, "{name}: no superblock ran");
    (i, vm)
}

/// The superblock VM's lowered-kind counts.
fn census(vm: &Vm) -> BTreeMap<String, usize> {
    vm.trans.kind_census().into_iter().collect()
}

// ---------------------------------------------------------------------
// Memory kinds.
// ---------------------------------------------------------------------

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn load_op(width: usize) -> Opcode {
    match width {
        1 => Opcode::Ld8u,
        2 => Opcode::Ld16u,
        4 => Opcode::Ld32u,
        _ => Opcode::Ld64,
    }
}

fn store_op(width: usize) -> Opcode {
    match width {
        1 => Opcode::St8,
        2 => Opcode::St16,
        4 => Opcode::St32,
        _ => Opcode::St64,
    }
}

/// The memory kinds, by the name of their lowered kind without its width.
const MEM_KINDS: [&str; 10] =
    ["Ld", "St", "LdSt", "LdXor", "LdAdd32_", "AddLd", "AddiLd", "TabLd", "SlLd", "XorSt"];

/// Whether memory kind `kind` stores (and so can exit `Patched`).
fn stores(kind: &str) -> bool {
    matches!(kind, "St" | "LdSt" | "XorSt")
}

/// Whether memory kind `kind` loads.
fn loads(kind: &str) -> bool {
    !matches!(kind, "St" | "XorSt")
}

/// What stores write: `movi r0, 99`, in `r1` and at [`IN_RANGE`].
fn patch() -> Instr {
    ins(Opcode::Movi, 0, 0, 0, 99)
}

/// The slot of the first of the two closing `halt`s of a memory case: the
/// slot a `Patched` store rewrites.
fn patch_slot(kind: &str) -> usize {
    prefix().len() + mem_body(kind, 8).len()
}

/// The instructions of memory kind `kind` at `width`. The load reads
/// `r2 + 16 + 8` (`TabLd`: the table base `DATA` + `r6` + 8); the store
/// writes `r3 + 16`.
fn mem_body(kind: &str, width: usize) -> Vec<Instr> {
    use Opcode::*;
    let (ld, st) = (load_op(width), store_op(width));
    match kind {
        "Ld" => vec![ins(ld, 1, 2, 0, 24)],
        "St" => vec![ins(st, 1, 3, 0, 16)],
        "LdSt" => vec![ins(ld, 1, 2, 0, 24), ins(st, 1, 3, 0, 16)],
        "LdXor" => vec![ins(ld, 1, 2, 0, 24), ins(Xor, 4, 4, 1, 0)],
        "LdAdd32_" => vec![ins(ld, 1, 2, 0, 24), ins(Add32, 4, 4, 1, 0)],
        // r6 = 16.
        "AddLd" => vec![ins(Add, 5, 2, 6, 0), ins(ld, 1, 5, 0, 8)],
        "AddiLd" => vec![ins(Addi, 5, 2, 0, 16), ins(ld, 1, 5, 0, 8)],
        // la r7, DATA ; add r5, r7, r6 ; ld r1, [r5+8]
        "TabLd" => vec![
            ins(Movi, 7, 0, 0, DATA as u32 as i32),
            ins(Movhi, 7, 0, 0, (DATA >> 32) as i32),
            ins(Add, 5, 7, 6, 0),
            ins(ld, 1, 5, 0, 8),
        ],
        // r6 = 2, scaled by 8.
        "SlLd" => vec![ins(Shli, 5, 6, 0, 3), ins(Add, 8, 2, 5, 0), ins(ld, 1, 8, 0, 8)],
        "XorSt" => vec![ins(Xor, 1, 4, 6, 0), ins(st, 1, 3, 0, 16)],
        other => unreachable!("{other}"),
    }
}

/// A memory case whose load reads `load_ea` and whose store writes
/// `store_ea`.
fn mem_case(kind: &str, width: usize, load_ea: u64, store_ea: u64, what: &str) -> Case {
    let mut prog = prefix();
    prog.extend(mem_body(kind, width));
    // The `Patched` stores rewrite the first halt with (part of) the
    // patch; the second halt ends the run either way.
    prog.extend([ins(Opcode::Halt, 0, 0, 0, 0), ins(Opcode::Halt, 0, 0, 0, 0)]);
    let mut regs = base_regs();
    let index = match kind {
        "SlLd" => 2,
        "TabLd" => load_ea.wrapping_sub(DATA + 8),
        _ => 16,
    };
    regs[6] = index;
    regs[2] = load_ea.wrapping_sub(24);
    regs[3] = store_ea.wrapping_sub(16);
    regs[1] = u64::from_le_bytes(patch().encode());
    if kind == "XorSt" {
        // The stored value is r4 ^ r6: make it the patch as well.
        regs[4] = regs[1] ^ regs[6];
    }
    Case { name: format!("{kind}{} {what}", width * 8), prog, regs }
}

/// Every memory case of `kind` at `width`.
fn mem_cases(kind: &str, width: usize) -> Vec<Case> {
    let ok = IN_RANGE;
    let patch = BASE + patch_slot(kind) as u64 * 8;
    let mut cases = vec![mem_case(kind, width, LOADED, DATA + 0x100, "in range")];
    if loads(kind) {
        for (ea, what) in [
            (UNMAPPED, "load unmapped"),
            (END - 1, "load at the last byte"),
            (u64::MAX - 2, "load wrapping"),
        ] {
            cases.push(mem_case(kind, width, ea, DATA + 0x100, what));
        }
    }
    if stores(kind) {
        for (ea, what) in [
            (UNMAPPED, "store unmapped"),
            (END - 1, "store at the last byte"),
            (u64::MAX - 2, "store wrapping"),
            (patch, "store into the lowered code page"),
        ] {
            cases.push(mem_case(kind, width, ok, ea, what));
        }
    }
    cases
}

#[test]
fn memory_kinds_exit_exactly_at_every_width() {
    for kind in MEM_KINDS {
        for width in WIDTHS {
            for case in mem_cases(kind, width) {
                let (out, vm) = agree(&case);
                if case.name.ends_with("in range") {
                    // The op under test was lowered as the kind meant.
                    let lowered = format!("{kind}{}", width * 8);
                    assert!(census(&vm)[&lowered] > 0, "{}: no {lowered} lowered", case.name);
                    assert!(out.res.is_ok(), "{}: {:?}", case.name, out.res);
                }
            }
        }
    }
}

#[test]
fn stores_into_lowered_code_take_effect() {
    // An 8-byte store replaces the first halt with `movi r0, 99`, which
    // must run before the second halt under both engines.
    for kind in ["St", "LdSt", "XorSt"] {
        let case = mem_cases(kind, 8).pop().expect("the patch case");
        let (out, _) = agree(&case);
        assert_eq!(out.res, Ok(Exit::Halt(99)), "{}", case.name);
    }
}

// ---------------------------------------------------------------------
// Side exits.
// ---------------------------------------------------------------------

const BRANCHES: [Opcode; 6] =
    [Opcode::Beq, Opcode::Bne, Opcode::Bltu, Opcode::Bgeu, Opcode::Blts, Opcode::Bges];

/// The fused pre-ops: none, `addi r1,r1,1` and `movi r2,5`.
const PRE_OPS: [&str; 3] = ["", "Addi", "Movi"];

fn pre_op(pre: &str) -> Vec<Instr> {
    match pre {
        "Addi" => vec![ins(Opcode::Addi, 1, 1, 0, 1)],
        "Movi" => vec![ins(Opcode::Movi, 2, 0, 0, 5)],
        _ => vec![],
    }
}

/// `r1`/`r2` pairs that make every condition both hold and fail, with or
/// without a pre-op (signed and unsigned orders differ on the last two).
const OPERANDS: [(u64, u64); 6] = [(4, 5), (5, 5), (6, 5), (4, 4), (u64::MAX, 5), (5, u64::MAX)];

/// A forward branch: taken, it leaves for `movi r0, 1`; not taken, the
/// trace falls through to `movi r0, 2`.
fn forward_case(branch: Opcode, pre: &str, (x, y): (u64, u64)) -> Case {
    use Opcode::*;
    let mut prog = prefix();
    prog.extend(pre_op(pre));
    prog.extend([
        ins(branch, 1, 2, 0, 16),
        ins(Movi, 0, 0, 0, 2),
        ins(Halt, 0, 0, 0, 0),
        ins(Movi, 0, 0, 0, 1),
        ins(Halt, 0, 0, 0, 0),
    ]);
    let mut regs = base_regs();
    (regs[1], regs[2]) = (x, y);
    Case { name: format!("{branch:?}{pre} forward r1={x:#x} r2={y:#x}"), prog, regs }
}

/// A loop closed by a backward branch, which the trace stores inverted:
/// `r3` counts iterations until the branch falls through or fuel runs out.
fn backward_case(branch: Opcode, pre: &str, (x, y): (u64, u64)) -> Case {
    use Opcode::*;
    let mut prog = prefix();
    let head = prog.len();
    prog.push(ins(Addi, 3, 3, 0, 1));
    prog.extend(pre_op(pre));
    let back = -((prog.len() + 1 - head) as i32) * 8;
    prog.extend([ins(branch, 1, 2, 0, back), ins(Halt, 0, 0, 0, 0)]);
    let mut regs = base_regs();
    (regs[1], regs[2], regs[3]) = (x, y, 0);
    Case { name: format!("{branch:?}{pre} backward r1={x:#x} r2={y:#x}"), prog, regs }
}

#[test]
fn side_exits_agree_taken_and_not_for_every_pre_op() {
    for branch in BRANCHES {
        for pre in PRE_OPS {
            let mut seen = Vec::new();
            for operands in OPERANDS {
                let (out, vm) = agree(&forward_case(branch, pre, operands));
                seen.push(out.res);
                let lowered = format!("{branch:?}{pre}");
                assert!(census(&vm)[&lowered] > 0, "{lowered} not lowered");
                agree(&backward_case(branch, pre, operands));
            }
            for path in [1, 2] {
                assert!(
                    seen.contains(&Ok(Exit::Halt(path))),
                    "{branch:?}{pre}: path {path} never ran"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Control kinds, and faults right after followed control transfers.
// ---------------------------------------------------------------------

fn case(name: &str, prog: Vec<Instr>, set: &[(usize, u64)]) -> Case {
    let mut regs = base_regs();
    for &(r, v) in set {
        regs[r] = v;
    }
    Case { name: name.to_string(), prog, regs }
}

/// The control and fault corpus: every terminator, followed calls and
/// guarded returns with their exits, and faults right after each followed
/// transfer.
fn control_cases() -> Vec<Case> {
    use Opcode::*;
    let halt = ins(Halt, 0, 0, 0, 0);
    let with_prefix = |body: &[Instr]| {
        let mut prog = prefix();
        prog.extend_from_slice(body);
        prog
    };
    // slot 2: call F (slot 5); slot 3: <after>; slot 4: halt; F at slot 5.
    let call_f = |after: Instr, callee: &[Instr]| {
        let mut prog = with_prefix(&[ins(Call, 0, 0, 0, 16), after, halt]);
        prog.extend_from_slice(callee);
        prog
    };
    let ret = ins(Ret, 0, 0, 0, 0);
    let fault_ld = ins(Ld64, 1, 2, 0, 0);
    let f_addr = BASE + 5 * 8;
    vec![
        case("fault right after a followed jmp", with_prefix(&[fault_ld, halt]), &[(2, UNMAPPED)]),
        case("fault right after a followed call", call_f(halt, &[fault_ld, ret]), &[(2, UNMAPPED)]),
        case(
            "fault right after a guarded ret",
            call_f(fault_ld, &[ins(Xori, 9, 9, 0, 3), ret]),
            &[(2, UNMAPPED)],
        ),
        case("followed call and ret", call_f(ins(Movi, 0, 0, 0, 7), &[ret]), &[]),
        case(
            // The callee overwrites its return address: the guarded ret
            // leaves the trace for the new target (slot 4, the halt).
            "redirected ret",
            call_f(ins(Movi, 0, 0, 0, 7), &[ins(St64, 4, 15, 0, 0), ret]),
            &[(4, BASE + 4 * 8)],
        ),
        case(
            // The push lands on the code page the block lowered.
            "followed call pushing into lowered code",
            call_f(ins(Movi, 0, 0, 0, 7), &[ret]),
            &[(15, BASE + 0x800)],
        ),
        case("followed call pushing unmapped", call_f(halt, &[ret]), &[(15, UNMAPPED)]),
        case(
            // A call the trace cannot follow: its target is off the image.
            "unfollowed call",
            with_prefix(&[ins(Call, 0, 0, 0, 0x10_0000), halt]),
            &[],
        ),
        case(
            "unfollowed call pushing into lowered code",
            with_prefix(&[ins(Call, 0, 0, 0, 0x10_0000), halt]),
            &[(15, BASE + 0x800)],
        ),
        case(
            "unfollowed call pushing unmapped",
            with_prefix(&[ins(Call, 0, 0, 0, 0x10_0000), halt]),
            &[(15, UNMAPPED)],
        ),
        case("callr", with_prefix(&[ins(Callr, 0, 5, 0, 0), halt, halt, ret]), &[(5, f_addr)]),
        case(
            "callr through sp",
            with_prefix(&[ins(Callr, 0, 15, 0, 0), halt]),
            &[(15, BASE + 3 * 8)],
        ),
        case("jmpr", with_prefix(&[ins(Jmpr, 0, 5, 0, 0), halt, halt]), &[(5, BASE + 4 * 8)]),
        case("ret with no followed call", with_prefix(&[ret, halt]), &[]),
        case("ret popping unmapped", with_prefix(&[ret, halt]), &[(15, UNMAPPED)]),
        case("unfollowed jmp", with_prefix(&[ins(Jmp, 0, 0, 0, 0x10_0000), halt]), &[]),
        case("ocall", with_prefix(&[ins(Ocall, 0, 0, 0, 3), halt]), &[]),
        case("intrin", with_prefix(&[ins(Intrin, 0, 0, 0, 1), halt]), &[]),
        case("illegal", with_prefix(&[Instr::ILLEGAL]), &[]),
        case("divu by zero", with_prefix(&[ins(Divu, 1, 2, 3, 0), halt]), &[(3, 0)]),
        case("remu by zero", with_prefix(&[ins(Remu, 1, 2, 3, 0), halt]), &[(3, 0)]),
        case(
            // Longer than one trace: the trace cap ends the first block.
            "trace cap",
            with_prefix(&[ins(Xori, 9, 9, 0, 1); 300]).into_iter().chain([halt]).collect(),
            &[],
        ),
    ]
}

#[test]
fn control_kinds_and_faults_after_followed_transfers_agree() {
    for case in control_cases() {
        agree(&case);
    }
}

// ---------------------------------------------------------------------
// Straight-line kinds.
// ---------------------------------------------------------------------

/// Every straight-line kind, unfused and fused, each shape separated by an
/// `xori` no fusion starts or absorbs.
fn alu_case(seed: u64) -> Case {
    use Opcode::*;
    let sep = ins(Xori, 9, 9, 0, 1);
    let shapes: Vec<Vec<Instr>> = vec![
        vec![ins(Mov, 5, 1, 0, 0)],
        vec![ins(Movi, 5, 0, 0, -3)],
        vec![ins(Ldpc, 5, 0, 0, 0)],
        vec![ins(Movhi, 5, 0, 0, 7)],
        vec![ins(Movi, 5, 0, 0, 9), ins(Movhi, 5, 0, 0, 1)],
        vec![ins(Add, 5, 1, 2, 0)],
        vec![ins(Sub, 5, 1, 2, 0)],
        vec![ins(Mul, 5, 1, 2, 0)],
        vec![ins(Divu, 5, 1, 3, 0)],
        vec![ins(Remu, 5, 1, 3, 0)],
        vec![ins(And, 5, 1, 2, 0)],
        vec![ins(Or, 5, 1, 2, 0)],
        vec![ins(Xor, 5, 1, 2, 0)],
        vec![ins(Shl, 5, 1, 2, 0)],
        vec![ins(Shru, 5, 1, 2, 0)],
        vec![ins(Shrs, 5, 1, 2, 0)],
        vec![ins(Rotl32, 5, 1, 2, 0)],
        vec![ins(Rotr32, 5, 1, 2, 0)],
        vec![ins(Add32, 5, 1, 2, 0)],
        vec![ins(Sub32, 5, 1, 2, 0)],
        vec![ins(Mul32, 5, 1, 2, 0)],
        vec![ins(Addi, 5, 1, 0, -77)],
        vec![ins(Andi, 5, 1, 0, 0x0FF0)],
        vec![ins(Ori, 5, 1, 0, 0x0F0F)],
        vec![ins(Xori, 5, 1, 0, -1)],
        vec![ins(Shli, 5, 1, 0, 13)],
        vec![ins(Shrui, 5, 1, 0, 13)],
        vec![ins(Shrsi, 5, 1, 0, 13)],
        vec![ins(Rotl32i, 5, 1, 0, 5)],
        vec![ins(Rotr32i, 5, 1, 0, 5)],
        vec![ins(Add32i, 5, 1, 0, -5)],
        vec![ins(Shli, 5, 2, 0, 2), ins(Add, 6, 1, 5, 0)],
        vec![ins(Shli, 5, 2, 0, 2), ins(Or, 6, 5, 1, 0)],
        vec![ins(Shrui, 5, 1, 0, 3), ins(Andi, 5, 5, 0, 0xFF)],
        vec![ins(Shru, 5, 1, 2, 0), ins(Andi, 5, 5, 0, 0xFF)],
        vec![ins(Xor, 5, 1, 2, 0), ins(Xor, 5, 5, 4, 0)],
        vec![ins(Add, 5, 1, 2, 0), ins(Add, 5, 4, 5, 0)],
        vec![ins(Add32, 5, 1, 2, 0), ins(Add32, 5, 5, 4, 0)],
        vec![ins(Rotl32i, 5, 1, 0, 5), ins(Add32, 5, 5, 2, 0)],
        vec![ins(Mov, 5, 1, 0, 0), ins(Mov, 6, 2, 0, 0)],
        // Aliased operands: the fused writes stay in program order.
        vec![ins(Shli, 5, 5, 0, 1), ins(Add, 6, 5, 5, 0)],
        vec![ins(Xor, 5, 5, 2, 0), ins(Xor, 5, 5, 5, 0)],
        vec![ins(Mov, 5, 6, 0, 0), ins(Mov, 6, 5, 0, 0)],
    ];
    let mut prog = prefix();
    for shape in shapes {
        prog.extend(shape);
        prog.push(sep);
    }
    prog.push(ins(Halt, 0, 0, 0, 0));
    let mut regs = base_regs();
    for (i, r) in regs.iter_mut().enumerate().take(8).skip(1) {
        *r = (seed + i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(seed as u32);
    }
    regs[3] |= 1;
    Case { name: format!("straight-line kinds, seed {seed}"), prog, regs }
}

#[test]
fn straight_line_kinds_agree() {
    for seed in 0..16 {
        agree(&alu_case(seed));
    }
}

// ---------------------------------------------------------------------
// Coverage.
// ---------------------------------------------------------------------

/// Every case of this file.
fn corpus() -> Vec<Case> {
    let mut all = Vec::new();
    for kind in MEM_KINDS {
        for width in WIDTHS {
            all.extend(mem_cases(kind, width));
        }
    }
    for branch in BRANCHES {
        for pre in PRE_OPS {
            for operands in OPERANDS {
                all.push(forward_case(branch, pre, operands));
                all.push(backward_case(branch, pre, operands));
            }
        }
    }
    all.extend(control_cases());
    all.push(alu_case(0));
    all
}

#[test]
fn corpus_lowers_every_kind() {
    let mut total: BTreeMap<String, usize> = BTreeMap::new();
    for case in corpus() {
        let (_, vm) = run(&case, Engine::Superblock);
        for (kind, n) in census(&vm) {
            *total.entry(kind).or_default() += n;
        }
    }
    let missing: Vec<&String> = total.iter().filter(|(_, &n)| n == 0).map(|(k, _)| k).collect();
    assert!(missing.is_empty(), "kinds the corpus never lowers: {missing:?}");
    assert!(total.len() > 100, "census lists {} kinds", total.len());
}
