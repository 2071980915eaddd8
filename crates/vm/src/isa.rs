//! The EV64 instruction set: a 64-bit, fixed-width (8-byte) register ISA
//! used as the "machine code" of simulated enclaves.
//!
//! Design constraints inherited from the paper's setting:
//!
//! * **Opcode `0x00` is illegal.** The sanitizer redacts functions by
//!   zeroing their bytes, so executing sanitized code must fault — exactly
//!   like zeroed x86 text (which decodes to `add [rax], al` and quickly
//!   faults on real hardware; here we make it immediate and deterministic).
//! * **Fixed 8-byte encoding** keeps EEXTEND's 256-byte measurement chunks
//!   instruction-aligned and makes disassembly (the attacker's tool)
//!   trivial, mirroring how the paper's evaluation disassembles enclaves.
//!
//! Encoding: `[opcode:u8][a:u8][b:u8][c:u8][imm:i32 LE]` where `a`/`b`/`c`
//! are register numbers (0–15) and `imm` is a signed 32-bit immediate.

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 16;
/// Size of one encoded instruction in bytes.
pub const INSTR_SIZE: u64 = 8;
/// Conventional stack-pointer register.
pub const REG_SP: u8 = 15;

/// EV64 opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Reserved illegal opcode — executing it faults (sanitized code!).
    Illegal = 0x00,
    /// Stop execution; `r0` carries the exit status (EEXIT analog).
    Halt = 0x01,
    /// `rd = rs`.
    Mov = 0x02,
    /// `rd = sign_extend(imm)`.
    Movi = 0x03,
    /// `rd = (rd & 0xFFFF_FFFF) | (imm as u64) << 32`.
    Movhi = 0x04,

    /// `rd = rs1 + rs2` (wrapping).
    Add = 0x10,
    /// `rd = rs1 - rs2` (wrapping).
    Sub = 0x11,
    /// `rd = rs1 * rs2` (wrapping).
    Mul = 0x12,
    /// `rd = rs1 / rs2` (unsigned; faults on zero divisor).
    Divu = 0x13,
    /// `rd = rs1 % rs2` (unsigned; faults on zero divisor).
    Remu = 0x14,
    /// `rd = rs1 & rs2`.
    And = 0x15,
    /// `rd = rs1 | rs2`.
    Or = 0x16,
    /// `rd = rs1 ^ rs2`.
    Xor = 0x17,
    /// `rd = rs1 << (rs2 & 63)`.
    Shl = 0x18,
    /// `rd = rs1 >> (rs2 & 63)` (logical).
    Shru = 0x19,
    /// `rd = (rs1 as i64) >> (rs2 & 63)` (arithmetic).
    Shrs = 0x1A,
    /// 32-bit rotate left: `rd = rotl32(rs1 as u32, rs2 & 31)`.
    Rotl32 = 0x1B,
    /// 32-bit rotate right.
    Rotr32 = 0x1C,
    /// 32-bit wrapping add, result zero-extended.
    Add32 = 0x1D,
    /// 32-bit wrapping subtract, result zero-extended.
    Sub32 = 0x1E,
    /// 32-bit wrapping multiply, result zero-extended.
    Mul32 = 0x1F,

    /// `rd = rs + imm` (wrapping).
    Addi = 0x20,
    /// `rd = rs & sign_extend(imm)`.
    Andi = 0x21,
    /// `rd = rs | sign_extend(imm)`.
    Ori = 0x22,
    /// `rd = rs ^ sign_extend(imm)`.
    Xori = 0x23,
    /// `rd = rs << (imm & 63)`.
    Shli = 0x24,
    /// `rd = rs >> (imm & 63)` (logical).
    Shrui = 0x25,
    /// `rd = (rs as i64) >> (imm & 63)`.
    Shrsi = 0x26,
    /// 32-bit rotate left by immediate.
    Rotl32i = 0x27,
    /// 32-bit rotate right by immediate.
    Rotr32i = 0x28,
    /// 32-bit wrapping add with immediate, zero-extended.
    Add32i = 0x29,

    /// `rd = zx8(mem[rs + imm])`.
    Ld8u = 0x30,
    /// `rd = zx16(mem[rs + imm])`.
    Ld16u = 0x31,
    /// `rd = zx32(mem[rs + imm])`.
    Ld32u = 0x32,
    /// `rd = mem64[rs + imm]`.
    Ld64 = 0x33,
    /// `mem8[rs + imm] = rd`.
    St8 = 0x34,
    /// `mem16[rs + imm] = rd`.
    St16 = 0x35,
    /// `mem32[rs + imm] = rd`.
    St32 = 0x36,
    /// `mem64[rs + imm] = rd`.
    St64 = 0x37,

    /// `pc += imm` (relative to the next instruction).
    Jmp = 0x40,
    /// Branch if `a == b`.
    Beq = 0x41,
    /// Branch if `a != b`.
    Bne = 0x42,
    /// Branch if `a < b` (unsigned).
    Bltu = 0x43,
    /// Branch if `a >= b` (unsigned).
    Bgeu = 0x44,
    /// Branch if `a < b` (signed).
    Blts = 0x45,
    /// Branch if `a >= b` (signed).
    Bges = 0x46,
    /// Push return address; `pc += imm`.
    Call = 0x47,
    /// Push return address; `pc = rs`.
    Callr = 0x48,
    /// Pop return address into `pc`.
    Ret = 0x49,
    /// `rd = address of the next instruction` — the position-independent
    /// primitive `elide_restore` uses to find the text base (§5).
    Ldpc = 0x4A,
    /// `pc = rs`.
    Jmpr = 0x4B,

    /// Exit to the untrusted host with ocall index `imm` (OCALL bridge).
    Ocall = 0x50,
    /// Invoke trusted intrinsic `imm` (SDK crypto / EGETKEY / EREPORT analog).
    Intrin = 0x51,
}

impl Opcode {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        use Opcode::*;
        Some(match b {
            0x00 => Illegal,
            0x01 => Halt,
            0x02 => Mov,
            0x03 => Movi,
            0x04 => Movhi,
            0x10 => Add,
            0x11 => Sub,
            0x12 => Mul,
            0x13 => Divu,
            0x14 => Remu,
            0x15 => And,
            0x16 => Or,
            0x17 => Xor,
            0x18 => Shl,
            0x19 => Shru,
            0x1A => Shrs,
            0x1B => Rotl32,
            0x1C => Rotr32,
            0x1D => Add32,
            0x1E => Sub32,
            0x1F => Mul32,
            0x20 => Addi,
            0x21 => Andi,
            0x22 => Ori,
            0x23 => Xori,
            0x24 => Shli,
            0x25 => Shrui,
            0x26 => Shrsi,
            0x27 => Rotl32i,
            0x28 => Rotr32i,
            0x29 => Add32i,
            0x30 => Ld8u,
            0x31 => Ld16u,
            0x32 => Ld32u,
            0x33 => Ld64,
            0x34 => St8,
            0x35 => St16,
            0x36 => St32,
            0x37 => St64,
            0x40 => Jmp,
            0x41 => Beq,
            0x42 => Bne,
            0x43 => Bltu,
            0x44 => Bgeu,
            0x45 => Blts,
            0x46 => Bges,
            0x47 => Call,
            0x48 => Callr,
            0x49 => Ret,
            0x4A => Ldpc,
            0x4B => Jmpr,
            0x50 => Ocall,
            0x51 => Intrin,
            _ => return None,
        })
    }

    /// The assembler mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        use Opcode::*;
        match self {
            Illegal => "illegal",
            Halt => "halt",
            Mov => "mov",
            Movi => "movi",
            Movhi => "movhi",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Divu => "divu",
            Remu => "remu",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shru => "shru",
            Shrs => "shrs",
            Rotl32 => "rotl32",
            Rotr32 => "rotr32",
            Add32 => "add32",
            Sub32 => "sub32",
            Mul32 => "mul32",
            Addi => "addi",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Shli => "shli",
            Shrui => "shrui",
            Shrsi => "shrsi",
            Rotl32i => "rotl32i",
            Rotr32i => "rotr32i",
            Add32i => "add32i",
            Ld8u => "ld8u",
            Ld16u => "ld16u",
            Ld32u => "ld32u",
            Ld64 => "ld64",
            St8 => "st8",
            St16 => "st16",
            St32 => "st32",
            St64 => "st64",
            Jmp => "jmp",
            Beq => "beq",
            Bne => "bne",
            Bltu => "bltu",
            Bgeu => "bgeu",
            Blts => "blts",
            Bges => "bges",
            Call => "call",
            Callr => "callr",
            Ret => "ret",
            Ldpc => "ldpc",
            Jmpr => "jmpr",
            Ocall => "ocall",
            Intrin => "intrin",
        }
    }
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Operation.
    pub op: Opcode,
    /// First register field (usually the destination).
    pub a: u8,
    /// Second register field.
    pub b: u8,
    /// Third register field.
    pub c: u8,
    /// Signed immediate.
    pub imm: i32,
}

impl Instr {
    /// What bytes that do not decode execute as: an [`Opcode::Illegal`]
    /// instruction, which retires and faults where it stands, exactly like
    /// the all-zero bytes of a sanitized function.
    pub const ILLEGAL: Instr = Instr { op: Opcode::Illegal, a: 0, b: 0, c: 0, imm: 0 };

    /// Creates an instruction, validating register fields.
    ///
    /// # Panics
    ///
    /// Panics if any register number is ≥ [`NUM_REGS`]. Encoders construct
    /// instructions from validated assembler state, so this is a programmer
    /// error.
    pub fn new(op: Opcode, a: u8, b: u8, c: u8, imm: i32) -> Self {
        assert!(
            (a as usize) < NUM_REGS && (b as usize) < NUM_REGS && (c as usize) < NUM_REGS,
            "register out of range"
        );
        Instr { op, a, b, c, imm }
    }

    /// Encodes to the 8-byte wire format.
    pub fn encode(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0] = self.op as u8;
        out[1] = self.a;
        out[2] = self.b;
        out[3] = self.c;
        out[4..8].copy_from_slice(&self.imm.to_le_bytes());
        out
    }

    /// Decodes from the 8-byte wire format. Returns `None` for an unknown
    /// opcode or out-of-range register field.
    pub fn decode(bytes: &[u8; 8]) -> Option<Instr> {
        let op = Opcode::from_u8(bytes[0])?;
        let (a, b, c) = (bytes[1], bytes[2], bytes[3]);
        if a as usize >= NUM_REGS || b as usize >= NUM_REGS || c as usize >= NUM_REGS {
            return None;
        }
        Some(Instr { op, a, b, c, imm: i32::from_le_bytes(bytes[4..8].try_into().unwrap()) })
    }
}

/// Well-known intrinsic numbers (the "statically linked SDK crypto" of the
/// paper's whitelist, exposed to bytecode as instructions).
pub mod intrinsics {
    /// AES-128-GCM decrypt: `r1`=key ptr, `r2`=iv ptr, `r3`=src ptr,
    /// `r4`=len, `r5`=dst ptr; tag is the 16 bytes following src+len.
    /// Returns 0 on success, 1 on authentication failure in `r0`.
    pub const AESGCM_DECRYPT: i32 = 1;
    /// AES-128-GCM encrypt: same registers; writes ciphertext || tag to dst.
    pub const AESGCM_ENCRYPT: i32 = 2;
    /// SHA-256: `r1`=src, `r2`=len, `r3`=dst (32 bytes).
    pub const SHA256: i32 = 3;
    /// EGETKEY: `r1`=key kind (0=seal, 1=report), `r2`=dst (16 bytes).
    pub const EGETKEY: i32 = 4;
    /// EREPORT: `r1`=report-data ptr (64 bytes), `r2`=dst report buffer.
    pub const EREPORT: i32 = 5;
    /// DH keygen: `r1`=dst public value buffer; private half is retained by
    /// the trusted runtime. Returns public length in `r0`.
    pub const DH_KEYGEN: i32 = 6;
    /// DH derive: `r1`=peer public ptr, `r2`=len, `r3`=dst 16-byte key.
    /// Returns 0 ok / 1 degenerate peer value.
    pub const DH_DERIVE: i32 = 7;
    /// Random bytes: `r1`=dst, `r2`=len.
    pub const RAND: i32 = 8;
    /// Bulk copy: `r1`=dst, `r2`=src, `r3`=len. Ranges must not overlap.
    /// Charges `ceil(len / 8)` extra fuel; `r0` = 0.
    pub const MEMCPY: i32 = 9;
    /// Bulk fill: `r1`=dst, `r2`=fill byte (low 8 bits), `r3`=len.
    /// Charges `ceil(len / 8)` extra fuel; `r0` = 0.
    pub const MEMSET: i32 = 10;
    /// Bulk compare: `r1`=a, `r2`=b, `r3`=len. Constant-time full scan
    /// (no early exit); `r0` = 0 when equal, 1 otherwise. Charges
    /// `ceil(len / 8)` extra fuel.
    pub const MEMCMP: i32 = 11;
    /// One SHA-256 compression round: `r1`=state ptr (8 little-endian u32,
    /// updated in place), `r2`=block ptr (64 message bytes). Charges 64
    /// extra fuel; `r0` = 0.
    pub const SHA256_COMPRESS: i32 = 12;
    /// EREPORT at an arbitrary target: `r1`=report-data ptr (64 bytes),
    /// `r2`=dst report buffer, `r3`=target MRENCLAVE ptr (32 bytes).
    /// Unlike [`EREPORT`] (hard-wired to the quoting enclave) this lets
    /// a peer enclave attest itself *to a delegate enclave* for local
    /// provisioning. Returns serialized report length in `r0`.
    pub const EREPORT_TARGETED: i32 = 13;
    /// Verify a local-attestation report targeted at *this* enclave:
    /// `r1`=serialized report ptr (160 bytes). Returns 0 in `r0` when the
    /// report MAC checks out under this enclave's report key (same
    /// processor, targeted at this MRENCLAVE), 1 otherwise.
    pub const VERIFY_REPORT: i32 = 14;

    /// Upper bound on a bulk intrinsic's length operand (256 MiB) — far
    /// above any real marshal buffer, low enough that a hostile length
    /// cannot stall the host for minutes inside one instruction.
    pub const BULK_MAX: u64 = 1 << 28;

    /// Fuel charged for moving `len` bytes through a bulk intrinsic: one
    /// unit per 8-byte word, mirroring what a hand-rolled EV64 copy loop
    /// retires per word — so `retired` and `ExecStats` stay comparable
    /// across intrinsic-on and intrinsic-off builds of the same app.
    pub fn bulk_fuel(len: u64) -> u64 {
        len.div_ceil(8)
    }

    /// Fuel charged per SHA-256 compression round (64 rounds of message
    /// schedule + state update).
    pub const SHA256_COMPRESS_FUEL: u64 = 64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_decode_to_illegal() {
        let decoded = Instr::decode(&[0u8; 8]).unwrap();
        assert_eq!(decoded.op, Opcode::Illegal);
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(Instr::decode(&[0xFF, 0, 0, 0, 0, 0, 0, 0]).is_none());
        assert!(Instr::decode(&[0x05, 0, 0, 0, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn out_of_range_register_rejected() {
        assert!(Instr::decode(&[0x02, 16, 0, 0, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn encode_decode_roundtrip_negative_imm() {
        let i = Instr::new(Opcode::Addi, 3, 15, 0, -8);
        assert_eq!(Instr::decode(&i.encode()).unwrap(), i);
    }

    #[test]
    #[should_panic(expected = "register out of range")]
    fn new_validates_registers() {
        Instr::new(Opcode::Mov, 16, 0, 0, 0);
    }

    // Deterministic xorshift so the roundtrip sweep needs no external deps.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn prop_roundtrip() {
        const OPS: [u8; 52] = [
            0x01, 0x02, 0x03, 0x04, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19,
            0x1A, 0x1B, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27,
            0x28, 0x29, 0x30, 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x40, 0x41, 0x42, 0x43,
            0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x4B, 0x50, 0x51,
        ];
        let mut state = 0x15A_0001u64;
        for &op_byte in &OPS {
            for _ in 0..8 {
                let a = (next(&mut state) % 16) as u8;
                let b = (next(&mut state) % 16) as u8;
                let c = (next(&mut state) % 16) as u8;
                let imm = next(&mut state) as u32 as i32;
                let op = Opcode::from_u8(op_byte).unwrap();
                let i = Instr::new(op, a, b, c, imm);
                assert_eq!(Instr::decode(&i.encode()).unwrap(), i);
            }
        }
    }
}
