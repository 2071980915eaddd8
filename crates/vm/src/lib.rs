//! # elide-vm
//!
//! EV64: the bytecode ISA that plays the role of x86-64 for simulated
//! enclaves, with the full toolchain the SgxElide pipeline needs:
//!
//! * [`isa`] — fixed-width 8-byte instructions; opcode `0x00` is illegal so
//!   sanitized (zeroed) code faults deterministically when executed.
//! * [`asm`] — a line-oriented assembler producing relocatable objects.
//! * [`elc`] — a small imperative language compiling to EV64 assembly.
//! * [`obj`] — the object format (sections, symbols, relocations).
//! * [`link`] — a two-pass linker emitting enclave ELF images.
//! * [`interp`] — the reference interpreter: a plain fetch–decode–execute
//!   loop in which every access goes through a [`mem::Bus`], which is how
//!   EPC page permissions are enforced.
//! * [`trans`] — superblock translation, the default engine and the one
//!   code cache: per-page decoded instructions and the blocks lowered from
//!   them, invalidated by generation when code pages change; fused
//!   macro-ops and per-block fuel so hot paths skip per-instruction
//!   dispatch entirely.
//! * [`disasm`] — the attacker's disassembler.
//!
//! # Examples
//!
//! ```
//! use elide_vm::{asm::assemble, interp::{Exit, Vm}, mem::FlatMemory};
//!
//! let obj = assemble(
//!     ".section text\n.global main\n.func main\n    movi r0, 41\n    addi r0, r0, 1\n    halt\n.endfunc\n",
//! ).unwrap();
//! let mut mem = FlatMemory::new(0, 4096);
//! mem.write_at(0, &obj.section("text").unwrap().bytes);
//! let mut vm = Vm::new(0);
//! vm.set_sp(4096);
//! assert_eq!(vm.run(&mut mem, 100).unwrap(), Exit::Halt(42));
//! ```

#![forbid(unsafe_code)]
pub mod asm;
pub mod disasm;
pub mod elc;
pub mod interp;
pub mod isa;
pub mod link;
pub mod mem;
pub mod obj;
pub mod trans;
