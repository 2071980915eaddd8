//! The EV64 interpreter: the reference the superblock engine is checked
//! against.
//!
//! A plain fetch–decode–execute loop. Every instruction is fetched through
//! the [`Bus`] and decoded afresh, so every fetch, load and store is subject
//! to the bus's permission model — which is how enclave page permissions
//! (and therefore the paper's self-modification constraint) are enforced —
//! and no cached copy of code can go stale: the interpreter shares no state
//! with the translator it checks.

use crate::isa::{Instr, Opcode, INSTR_SIZE, NUM_REGS, REG_SP};
use crate::mem::{Bus, VmFault};
use crate::trans::TransCache;

/// Why execution returned to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The guest executed `halt`; the payload is `r0`.
    Halt(u64),
    /// The guest executed `ocall imm`; the host services it and resumes.
    Ocall(i32),
}

/// Which execution tier [`Vm::run`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Superblock translation (see [`crate::trans`]), executing through
    /// the interpreter's per-instruction step where translation does not
    /// apply.
    #[default]
    Superblock,
    /// The reference interpreter loop only.
    Interp,
}

/// Execution-tier counters, so benches and tests can assert the fast path
/// is actually taken rather than inferring it from wall-clock speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Superblocks entered (block dispatches, including chained re-entries).
    pub blocks_entered: u64,
    /// Translation misses: blocks lowered from decoded instructions.
    pub blocks_translated: u64,
    /// Guest instructions retired inside translated superblocks.
    pub trans_retired: u64,
    /// Guest instructions retired by the interpreter loop (the fallback
    /// path under [`Engine::Superblock`]; everything under
    /// [`Engine::Interp`]).
    pub interp_retired: u64,
}

/// Interpreter state: 16 registers and the program counter.
///
/// # Examples
///
/// ```
/// use elide_vm::interp::{Exit, Vm};
/// use elide_vm::isa::{Instr, Opcode};
/// use elide_vm::mem::FlatMemory;
///
/// let mut mem = FlatMemory::new(0, 4096);
/// // movi r0, 42 ; halt
/// mem.write_at(0, &Instr::new(Opcode::Movi, 0, 0, 0, 42).encode());
/// mem.write_at(8, &Instr::new(Opcode::Halt, 0, 0, 0, 0).encode());
/// let mut vm = Vm::new(0);
/// assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(42));
/// ```
#[derive(Debug, Clone)]
pub struct Vm {
    /// General-purpose registers.
    pub regs: [u64; NUM_REGS],
    /// Program counter.
    pub pc: u64,
    /// Instructions executed since construction (for benchmarks).
    pub retired: u64,
    /// The superblock engine's code cache.
    pub trans: TransCache,
    /// Which execution tier [`Vm::run`] drives.
    pub engine: Engine,
    /// Execution-tier counters.
    pub stats: ExecStats,
}

impl Vm {
    /// Creates a VM with cleared registers, starting at `entry`.
    pub fn new(entry: u64) -> Self {
        Vm {
            regs: [0; NUM_REGS],
            pc: entry,
            retired: 0,
            trans: TransCache::default(),
            engine: Engine::default(),
            stats: ExecStats::default(),
        }
    }

    /// Selects the execution tier for subsequent [`Vm::run`] calls.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Sets the stack pointer (`r15`).
    pub fn set_sp(&mut self, sp: u64) {
        self.regs[REG_SP as usize] = sp;
    }

    /// Runs until `halt`, an `ocall`, a fault, or `fuel` instructions.
    ///
    /// After an [`Exit::Ocall`] the host services the call (by convention
    /// arguments are in `r1..r5` and the result is written to `r0`) and
    /// simply calls `run` again: the program counter already points past
    /// the `ocall`. `intrin` instructions dispatch to [`Bus::intrinsic`].
    ///
    /// # Errors
    ///
    /// Returns the first [`VmFault`] raised.
    pub fn run<B: Bus + ?Sized>(&mut self, bus: &mut B, fuel: u64) -> Result<Exit, VmFault> {
        match self.engine {
            Engine::Superblock => crate::trans::run_superblock(self, bus, fuel),
            Engine::Interp => self.interp(bus, fuel),
        }
    }

    /// Runs the interpreter loop until an exit, a fault or `fuel`
    /// instructions.
    pub(crate) fn interp<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        mut fuel: u64,
    ) -> Result<Exit, VmFault> {
        loop {
            if let Some(exit) = self.step(bus, &mut fuel)? {
                return Ok(exit);
            }
        }
    }

    /// Fetches, decodes and executes the instruction at the pc, charging
    /// `fuel` (one per instruction plus a bulk intrinsic's extra charge).
    /// Returns the exit when the instruction was `halt` or `ocall`.
    #[inline(always)]
    pub(crate) fn step<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        fuel: &mut u64,
    ) -> Result<Option<Exit>, VmFault> {
        if *fuel == 0 {
            return Err(VmFault::OutOfFuel);
        }
        *fuel -= 1;
        let addr = self.pc;
        let raw = bus.fetch(addr)?;
        let instr = Instr::decode(&raw).unwrap_or(Instr::ILLEGAL);
        let mut next = addr.wrapping_add(INSTR_SIZE);
        self.retired += 1;
        self.stats.interp_retired += 1;

        let r = &mut self.regs;
        let imm_s = instr.imm as i64 as u64; // sign-extended immediate
        use Opcode::*;
        match instr.op {
            Illegal => return Err(VmFault::IllegalInstruction { addr }),
            Halt => {
                self.pc = next;
                return Ok(Some(Exit::Halt(r[0])));
            }
            Mov => r[instr.a as usize] = r[instr.b as usize],
            Movi => r[instr.a as usize] = imm_s,
            Movhi => {
                r[instr.a as usize] =
                    (r[instr.a as usize] & 0xFFFF_FFFF) | ((instr.imm as u32 as u64) << 32)
            }
            Add => binop(r, instr, u64::wrapping_add),
            Sub => binop(r, instr, u64::wrapping_sub),
            Mul => binop(r, instr, u64::wrapping_mul),
            Divu => {
                let d = r[instr.c as usize];
                if d == 0 {
                    return Err(VmFault::DivideByZero { addr });
                }
                r[instr.a as usize] = r[instr.b as usize] / d;
            }
            Remu => {
                let d = r[instr.c as usize];
                if d == 0 {
                    return Err(VmFault::DivideByZero { addr });
                }
                r[instr.a as usize] = r[instr.b as usize] % d;
            }
            And => binop(r, instr, |x, y| x & y),
            Or => binop(r, instr, |x, y| x | y),
            Xor => binop(r, instr, |x, y| x ^ y),
            Shl => binop(r, instr, |x, y| x << (y & 63)),
            Shru => binop(r, instr, |x, y| x >> (y & 63)),
            Shrs => binop(r, instr, |x, y| ((x as i64) >> (y & 63)) as u64),
            Rotl32 => binop(r, instr, |x, y| (x as u32).rotate_left(y as u32 & 31) as u64),
            Rotr32 => binop(r, instr, |x, y| (x as u32).rotate_right(y as u32 & 31) as u64),
            Add32 => binop(r, instr, |x, y| (x as u32).wrapping_add(y as u32) as u64),
            Sub32 => binop(r, instr, |x, y| (x as u32).wrapping_sub(y as u32) as u64),
            Mul32 => binop(r, instr, |x, y| (x as u32).wrapping_mul(y as u32) as u64),
            Addi => r[instr.a as usize] = r[instr.b as usize].wrapping_add(imm_s),
            Andi => r[instr.a as usize] = r[instr.b as usize] & imm_s,
            Ori => r[instr.a as usize] = r[instr.b as usize] | imm_s,
            Xori => r[instr.a as usize] = r[instr.b as usize] ^ imm_s,
            Shli => r[instr.a as usize] = r[instr.b as usize] << (instr.imm & 63),
            Shrui => r[instr.a as usize] = r[instr.b as usize] >> (instr.imm & 63),
            Shrsi => {
                r[instr.a as usize] = ((r[instr.b as usize] as i64) >> (instr.imm & 63)) as u64
            }
            Rotl32i => {
                r[instr.a as usize] =
                    (r[instr.b as usize] as u32).rotate_left(instr.imm as u32 & 31) as u64
            }
            Rotr32i => {
                r[instr.a as usize] =
                    (r[instr.b as usize] as u32).rotate_right(instr.imm as u32 & 31) as u64
            }
            Add32i => {
                r[instr.a as usize] =
                    (r[instr.b as usize] as u32).wrapping_add(instr.imm as u32) as u64
            }
            Ld8u | Ld16u | Ld32u | Ld64 => {
                let size = match instr.op {
                    Ld8u => 1,
                    Ld16u => 2,
                    Ld32u => 4,
                    _ => 8,
                };
                let ea = r[instr.b as usize].wrapping_add(imm_s);
                r[instr.a as usize] = bus.load(ea, size)?;
            }
            St8 | St16 | St32 | St64 => {
                let size = match instr.op {
                    St8 => 1,
                    St16 => 2,
                    St32 => 4,
                    _ => 8,
                };
                let ea = r[instr.b as usize].wrapping_add(imm_s);
                bus.store(ea, size, r[instr.a as usize])?;
            }
            Jmp => next = next.wrapping_add(imm_s),
            Beq | Bne | Bltu | Bgeu | Blts | Bges => {
                let x = r[instr.a as usize];
                let y = r[instr.b as usize];
                let taken = match instr.op {
                    Beq => x == y,
                    Bne => x != y,
                    Bltu => x < y,
                    Bgeu => x >= y,
                    Blts => (x as i64) < (y as i64),
                    _ => (x as i64) >= (y as i64),
                };
                if taken {
                    next = next.wrapping_add(imm_s);
                }
            }
            Call => {
                let sp = r[REG_SP as usize].wrapping_sub(8);
                bus.store(sp, 8, next)?;
                self.regs[REG_SP as usize] = sp;
                next = next.wrapping_add(imm_s);
            }
            Callr => {
                let target = r[instr.b as usize];
                let sp = r[REG_SP as usize].wrapping_sub(8);
                bus.store(sp, 8, next)?;
                self.regs[REG_SP as usize] = sp;
                next = target;
            }
            Ret => {
                let sp = r[REG_SP as usize];
                next = bus.load(sp, 8)?;
                self.regs[REG_SP as usize] = sp.wrapping_add(8);
            }
            Ldpc => r[instr.a as usize] = next,
            Jmpr => next = r[instr.b as usize],
            Ocall => {
                self.pc = next;
                return Ok(Some(Exit::Ocall(instr.imm)));
            }
            Intrin => {
                self.pc = next;
                let extra = bus.intrinsic(instr.imm, &mut self.regs)?;
                if extra > 0 {
                    // Bulk intrinsics charge fuel proportional to the
                    // bytes they moved. The charge lands after the work
                    // (the byte count is only known then), so an
                    // exhausted budget faults with the effects already
                    // committed and the pc past the `intrin` — the
                    // translator mirrors this exactly.
                    self.retired += extra;
                    self.stats.interp_retired += extra;
                    if *fuel < extra {
                        return Err(VmFault::OutOfFuel);
                    }
                    *fuel -= extra;
                }
                return Ok(None);
            }
        }
        self.pc = next;
        Ok(None)
    }
}

#[inline]
fn binop(r: &mut [u64; NUM_REGS], i: Instr, f: impl Fn(u64, u64) -> u64) {
    r[i.a as usize] = f(r[i.b as usize], r[i.c as usize]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr as I;
    use crate::mem::FlatMemory;
    use Opcode::*;

    fn program(instrs: &[I]) -> FlatMemory {
        let mut mem = FlatMemory::new(0, 65536);
        for (i, ins) in instrs.iter().enumerate() {
            mem.write_at(i as u64 * 8, &ins.encode());
        }
        mem
    }

    fn run_program(instrs: &[I]) -> (Vm, Result<Exit, VmFault>) {
        let mut mem = program(instrs);
        let mut vm = Vm::new(0);
        vm.set_sp(65536);
        let r = vm.run(&mut mem, 10_000);
        (vm, r)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (_, r) = run_program(&[
            I::new(Movi, 1, 0, 0, 20),
            I::new(Movi, 2, 0, 0, 22),
            I::new(Add, 0, 1, 2, 0),
            I::new(Halt, 0, 0, 0, 0),
        ]);
        assert_eq!(r.unwrap(), Exit::Halt(42));
    }

    #[test]
    fn movhi_builds_64bit_constants() {
        let (vm, r) = run_program(&[
            I::new(Movi, 0, 0, 0, 0x5678),
            I::new(Movhi, 0, 0, 0, 0x1234),
            I::new(Halt, 0, 0, 0, 0),
        ]);
        assert_eq!(r.unwrap(), Exit::Halt(0x0000_1234_0000_5678));
        let _ = vm;
    }

    #[test]
    fn movi_sign_extends() {
        let (_, r) = run_program(&[I::new(Movi, 0, 0, 0, -1), I::new(Halt, 0, 0, 0, 0)]);
        assert_eq!(r.unwrap(), Exit::Halt(u64::MAX));
    }

    #[test]
    fn loads_and_stores() {
        let (_, r) = run_program(&[
            I::new(Movi, 1, 0, 0, 0x1000),
            I::new(Movi, 2, 0, 0, -2), // 0xFFFF_FFFF_FFFF_FFFE
            I::new(St32, 2, 1, 0, 4),
            I::new(Ld16u, 0, 1, 0, 4),
            I::new(Halt, 0, 0, 0, 0),
        ]);
        assert_eq!(r.unwrap(), Exit::Halt(0xFFFE));
    }

    #[test]
    fn branch_loop_sums() {
        // sum 1..=10 into r0
        let (_, r) = run_program(&[
            I::new(Movi, 1, 0, 0, 10), // i = 10
            I::new(Movi, 0, 0, 0, 0),  // acc
            I::new(Movi, 2, 0, 0, 0),  // zero
            // loop:
            I::new(Add, 0, 0, 1, 0),   // acc += i
            I::new(Addi, 1, 1, 0, -1), // i -= 1
            I::new(Bne, 1, 2, 0, -24), // if i != 0 goto loop (3 instrs back)
            I::new(Halt, 0, 0, 0, 0),
        ]);
        assert_eq!(r.unwrap(), Exit::Halt(55));
    }

    #[test]
    fn call_and_ret() {
        // call +16 (skip halt, land on function); function: movi r0, 7; ret
        let (_, r) = run_program(&[
            I::new(Call, 0, 0, 0, 8), // call the function at instr 2
            I::new(Halt, 0, 0, 0, 0), // returns here
            I::new(Movi, 0, 0, 0, 7), // function body
            I::new(Ret, 0, 0, 0, 0),
        ]);
        assert_eq!(r.unwrap(), Exit::Halt(7));
    }

    #[test]
    fn callr_indirect() {
        let (_, r) = run_program(&[
            I::new(Movi, 3, 0, 0, 24), // address of function (instr 3)
            I::new(Callr, 0, 3, 0, 0),
            I::new(Halt, 0, 0, 0, 0),
            I::new(Movi, 0, 0, 0, 99),
            I::new(Ret, 0, 0, 0, 0),
        ]);
        assert_eq!(r.unwrap(), Exit::Halt(99));
    }

    #[test]
    fn ldpc_reads_next_pc() {
        let (_, r) = run_program(&[I::new(Ldpc, 0, 0, 0, 0), I::new(Halt, 0, 0, 0, 0)]);
        assert_eq!(r.unwrap(), Exit::Halt(8));
    }

    #[test]
    fn zeroed_memory_faults_as_illegal() {
        // pc starts at 0 in zeroed memory: the sanitized-code case.
        let mut mem = FlatMemory::new(0, 4096);
        let mut vm = Vm::new(0);
        assert_eq!(vm.run(&mut mem, 10), Err(VmFault::IllegalInstruction { addr: 0 }));
    }

    #[test]
    fn divide_by_zero_faults() {
        let (_, r) = run_program(&[
            I::new(Movi, 1, 0, 0, 5),
            I::new(Movi, 2, 0, 0, 0),
            I::new(Divu, 0, 1, 2, 0),
        ]);
        assert_eq!(r, Err(VmFault::DivideByZero { addr: 16 }));
    }

    #[test]
    fn fuel_exhaustion() {
        // Infinite loop: jmp -8 (back to itself).
        let (_, r) = run_program(&[I::new(Jmp, 0, 0, 0, -8)]);
        assert_eq!(r, Err(VmFault::OutOfFuel));
    }

    #[test]
    fn ocall_exits_and_resumes() {
        let mut mem = program(&[
            I::new(Ocall, 0, 0, 0, 3),
            I::new(Addi, 0, 0, 0, 1),
            I::new(Halt, 0, 0, 0, 0),
        ]);
        let mut vm = Vm::new(0);
        vm.set_sp(65536);
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Ocall(3));
        vm.regs[0] = 41; // host writes the ocall result
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(42));
    }

    #[test]
    fn intrinsics_dispatch_through_bus() {
        struct Doubling(FlatMemory);
        impl Bus for Doubling {
            fn load(&mut self, addr: u64, size: usize) -> Result<u64, VmFault> {
                self.0.load(addr, size)
            }
            fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), VmFault> {
                self.0.store(addr, size, value)
            }
            fn fetch(&mut self, addr: u64) -> Result<[u8; 8], VmFault> {
                self.0.fetch(addr)
            }
            fn intrinsic(
                &mut self,
                index: i32,
                regs: &mut [u64; NUM_REGS],
            ) -> Result<u64, VmFault> {
                assert_eq!(index, 9);
                regs[0] = regs[1] * 2;
                Ok(0)
            }
        }
        let mut mem = Doubling(program(&[
            I::new(Movi, 1, 0, 0, 21),
            I::new(Intrin, 0, 0, 0, 9),
            I::new(Halt, 0, 0, 0, 0),
        ]));
        let mut vm = Vm::new(0);
        vm.set_sp(65536);
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(42));
    }

    #[test]
    fn default_bus_faults_on_intrinsic() {
        let mut mem = program(&[I::new(Intrin, 0, 0, 0, 5)]);
        let mut vm = Vm::new(0);
        assert_eq!(vm.run(&mut mem, 10), Err(VmFault::BadIntrinsic { index: 5 }));
    }

    #[test]
    fn rot32_semantics() {
        let (_, r) = run_program(&[
            I::new(Movi, 1, 0, 0, 0x80000000u32 as i32),
            I::new(Rotl32i, 0, 1, 0, 1),
            I::new(Halt, 0, 0, 0, 0),
        ]);
        assert_eq!(r.unwrap(), Exit::Halt(1));
    }

    #[test]
    fn add32_wraps_and_zero_extends() {
        let (_, r) = run_program(&[
            I::new(Movi, 1, 0, 0, -1), // 0xFFFF_FFFF_FFFF_FFFF
            I::new(Movi, 2, 0, 0, 2),
            I::new(Add32, 0, 1, 2, 0),
            I::new(Halt, 0, 0, 0, 0),
        ]);
        assert_eq!(r.unwrap(), Exit::Halt(1));
    }
}
