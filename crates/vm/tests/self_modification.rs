//! Self-modification coherence on both engines.
//!
//! The superblock engine trades per-instruction fetches for page-granular
//! decoded arrays and blocks lowered from them, so every way code bytes can
//! change under a running (or resumed) VM needs a test proving the new
//! bytes are served: host rewrites between runs (restore), guest stores
//! into the page being executed (JIT-style patching), and the
//! sanitized-page life cycle where all-zero bytes must fault exactly like a
//! fetch would. Each case runs under the reference interpreter too, which
//! fetches every instruction and so sets the expected behaviour.

use elide_vm::interp::{Engine, Exit, Vm};
use elide_vm::isa::{Instr, Opcode};
use elide_vm::mem::{FlatMemory, VmFault};

const ENGINES: [Engine; 2] = [Engine::Interp, Engine::Superblock];

fn enc(op: Opcode, a: u8, b: u8, c: u8, imm: i32) -> [u8; 8] {
    Instr::new(op, a, b, c, imm).encode()
}

#[test]
fn host_rewrite_between_runs_is_served() {
    for engine in ENGINES {
        let mut mem = FlatMemory::new(0, 8192);
        mem.write_at(0, &enc(Opcode::Movi, 0, 0, 0, 1));
        mem.write_at(8, &enc(Opcode::Halt, 0, 0, 0, 0));
        let mut vm = Vm::new(0);
        vm.set_engine(engine);
        vm.set_sp(8192);
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(1));

        // The host rewrites the code; the same VM (same warm cache) must see
        // the new immediate on the next run — this is the `elide_restore`
        // shape: bytes change while no guest instruction is in flight.
        mem.write_at(0, &enc(Opcode::Movi, 0, 0, 0, 2));
        vm.pc = 0;
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(2));
    }
}

#[test]
fn guest_store_into_executing_page_is_served() {
    for engine in ENGINES {
        // The guest assembles `movi r0, 77` in a register, stores it over a
        // later slot of the *page it is executing*, and falls through into it.
        // A stale cache would serve the original `movi r0, 1`.
        let patch = u64::from_le_bytes(enc(Opcode::Movi, 0, 0, 0, 77));
        let lo = patch as u32 as i32;
        let hi = (patch >> 32) as u32 as i32;
        let mut mem = FlatMemory::new(0, 8192);
        mem.write_at(0, &enc(Opcode::Movi, 1, 0, 0, lo));
        mem.write_at(8, &enc(Opcode::Movhi, 1, 0, 0, hi));
        mem.write_at(16, &enc(Opcode::Movi, 2, 0, 0, 40)); // target slot address
        mem.write_at(24, &enc(Opcode::St64, 1, 2, 0, 0));
        mem.write_at(32, &enc(Opcode::Movi, 3, 0, 0, 0)); // filler
        mem.write_at(40, &enc(Opcode::Movi, 0, 0, 0, 1)); // will be patched
        mem.write_at(48, &enc(Opcode::Halt, 0, 0, 0, 0));
        let mut vm = Vm::new(0);
        vm.set_engine(engine);
        vm.set_sp(8192);
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(77));
    }
}

#[test]
fn zeroed_page_faults_then_restore_resumes_same_vm() {
    for engine in ENGINES {
        // The sanitized-code life cycle: all-zero bytes must fault as
        // IllegalInstruction at the exact address (cached or not), and after
        // the host writes real code the *same* VM must execute it.
        let mut mem = FlatMemory::new(0, 4096);
        let mut vm = Vm::new(0);
        vm.set_engine(engine);
        vm.set_sp(4096);
        assert_eq!(vm.run(&mut mem, 10), Err(VmFault::IllegalInstruction { addr: 0 }));
        // Fault again to prove the decoded zero page keeps faulting.
        assert_eq!(vm.run(&mut mem, 10), Err(VmFault::IllegalInstruction { addr: 0 }));

        mem.write_at(0, &enc(Opcode::Movi, 0, 0, 0, 5));
        mem.write_at(8, &enc(Opcode::Halt, 0, 0, 0, 0));
        assert_eq!(vm.run(&mut mem, 10).unwrap(), Exit::Halt(5));
    }
}

#[test]
fn misaligned_pc_executes_via_slow_path() {
    for engine in ENGINES {
        // Instructions at non-8-aligned addresses straddle decoded slots
        // and must fall back to per-instruction fetches.
        let mut mem = FlatMemory::new(0, 8192);
        mem.write_at(0, &enc(Opcode::Movi, 1, 0, 0, 12));
        mem.write_at(8, &enc(Opcode::Jmpr, 0, 1, 0, 0));
        mem.write_at(12, &enc(Opcode::Movi, 0, 0, 0, 9));
        mem.write_at(20, &enc(Opcode::Halt, 0, 0, 0, 0));
        let mut vm = Vm::new(0);
        vm.set_engine(engine);
        vm.set_sp(8192);
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(9));
    }
}

#[test]
fn cross_page_execution_and_patching() {
    for engine in ENGINES {
        // Code spans two pages; a store from page 0 patches page 1 before
        // control transfers there.
        let patch = u64::from_le_bytes(enc(Opcode::Movi, 0, 0, 0, 33));
        let lo = patch as u32 as i32;
        let hi = (patch >> 32) as u32 as i32;
        let mut mem = FlatMemory::new(0, 16384);
        mem.write_at(0, &enc(Opcode::Movi, 1, 0, 0, lo));
        mem.write_at(8, &enc(Opcode::Movhi, 1, 0, 0, hi));
        mem.write_at(16, &enc(Opcode::Movi, 2, 0, 0, 4096));
        mem.write_at(24, &enc(Opcode::St64, 1, 2, 0, 0));
        mem.write_at(32, &enc(Opcode::Jmpr, 0, 2, 0, 0));
        // Page 1 pre-patch: movi r0, 1 (stale result) then halt.
        mem.write_at(4096, &enc(Opcode::Movi, 0, 0, 0, 1));
        mem.write_at(4104, &enc(Opcode::Halt, 0, 0, 0, 0));
        let mut vm = Vm::new(0);
        vm.set_engine(engine);
        vm.set_sp(16384);
        // Warm the cache for page 1 first so the patch must invalidate it.
        vm.pc = 4096;
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(1));
        vm.pc = 0;
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(33));
    }
}
