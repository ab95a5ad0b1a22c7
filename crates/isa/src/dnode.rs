//! Dnode microinstruction set: operations, operand selectors and the
//! 48-bit configuration-word encoding.
//!
//! A Dnode executes exactly one microinstruction per clock cycle. In
//! *global mode* the word is supplied by the active configuration context;
//! in *local mode* it comes from the Dnode's own sequencer registers
//! (`S1..S8`). Either way the semantics are identical: read two operands,
//! combine them through the ALU and/or the hardwired multiplier, and commit
//! the result to a register, the layer output and/or the shared bus.
//!
//! The multiply-accumulate family ([`AluOp::Mac`], [`AluOp::MacSat`],
//! [`AluOp::Msu`]) chains the multiplier into the adder combinationally, the
//! paper's "up to two arithmetic operations each clock cycle".

use std::fmt;

use crate::Word16;

/// One of the four 16-bit registers in a Dnode's register file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    /// Register 0.
    R0,
    /// Register 1.
    R1,
    /// Register 2.
    R2,
    /// Register 3.
    R3,
}

impl Reg {
    /// All registers in index order.
    pub const ALL: [Reg; 4] = [Reg::R0, Reg::R1, Reg::R2, Reg::R3];

    /// The register's index (0..=3).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Reg::R0 => 0,
            Reg::R1 => 1,
            Reg::R2 => 2,
            Reg::R3 => 3,
        }
    }

    /// Register with the given index.
    ///
    /// # Errors
    ///
    /// Returns `None` if `index > 3`.
    #[inline]
    pub const fn from_index(index: usize) -> Option<Reg> {
        match index {
            0 => Some(Reg::R0),
            1 => Some(Reg::R1),
            2 => Some(Reg::R2),
            3 => Some(Reg::R3),
            _ => None,
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

/// Source selector for a Dnode ALU operand.
///
/// Mirrors the input multiplexer of the paper's Figure 3:
/// `In(1,2), fifo(1,2), bus, R(i)` plus an immediate and constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register file read port.
    Reg(Reg),
    /// First switch input port (forward dataflow).
    In1,
    /// Second switch input port (forward dataflow).
    In2,
    /// First feedback-pipeline read port (reverse dataflow).
    Fifo1,
    /// Second feedback-pipeline read port (reverse dataflow).
    Fifo2,
    /// The shared bus (driven by the configuration controller or a Dnode).
    Bus,
    /// The microinstruction's 16-bit immediate field.
    Imm,
    /// Constant zero.
    Zero,
    /// Constant one.
    One,
}

impl Operand {
    const ENCODINGS: [(Operand, u8); 12] = [
        (Operand::Reg(Reg::R0), 0),
        (Operand::Reg(Reg::R1), 1),
        (Operand::Reg(Reg::R2), 2),
        (Operand::Reg(Reg::R3), 3),
        (Operand::In1, 4),
        (Operand::In2, 5),
        (Operand::Fifo1, 6),
        (Operand::Fifo2, 7),
        (Operand::Bus, 8),
        (Operand::Imm, 9),
        (Operand::Zero, 10),
        (Operand::One, 11),
    ];

    /// 4-bit field encoding.
    pub fn encode(self) -> u8 {
        Self::ENCODINGS
            .iter()
            .find(|(op, _)| *op == self)
            .map(|(_, code)| *code)
            .expect("every operand has an encoding")
    }

    /// Decodes a 4-bit field.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeMicroError`] for the four reserved encodings.
    pub fn decode(code: u8) -> Result<Self, DecodeMicroError> {
        Self::ENCODINGS
            .iter()
            .find(|(_, c)| *c == code)
            .map(|(op, _)| *op)
            .ok_or(DecodeMicroError::Operand(code))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::In1 => write!(f, "in1"),
            Operand::In2 => write!(f, "in2"),
            Operand::Fifo1 => write!(f, "fifo1"),
            Operand::Fifo2 => write!(f, "fifo2"),
            Operand::Bus => write!(f, "bus"),
            Operand::Imm => write!(f, "imm"),
            Operand::Zero => write!(f, "zero"),
            Operand::One => write!(f, "one"),
        }
    }
}

/// Dnode datapath operation.
///
/// The three-operand multiply-accumulate family uses the destination
/// register as implicit accumulator (`acc = acc op a*b`), keeping the
/// two-read-port register file of the paper sufficient.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// No operation; the Dnode output holds zero.
    Nop,
    /// Pass operand A through.
    PassA,
    /// Pass operand B through.
    PassB,
    /// Wrapping addition `a + b`.
    Add,
    /// Saturating signed addition.
    AddSat,
    /// Wrapping subtraction `a - b`.
    Sub,
    /// Saturating signed subtraction.
    SubSat,
    /// Two's-complement negation of A.
    Neg,
    /// Saturating absolute value of A.
    Abs,
    /// Saturating absolute difference `|a - b|`.
    AbsDiff,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT of A.
    Not,
    /// Logical left shift of A by `b & 15`.
    Shl,
    /// Logical right shift of A by `b & 15`.
    Shr,
    /// Arithmetic right shift of A by `b & 15`.
    Asr,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Unsigned minimum.
    MinU,
    /// Unsigned maximum.
    MaxU,
    /// Signed set-less-than (1 or 0).
    Slt,
    /// Unsigned set-less-than (1 or 0).
    SltU,
    /// Low half of the 16x16 product.
    Mul,
    /// High half of the signed 16x16 product.
    MulHi,
    /// High half of the unsigned 16x16 product.
    MulHiU,
    /// Multiply-accumulate: `dst + a*b` (wrapping), the paper's single-cycle
    /// MAC chaining multiplier into adder.
    Mac,
    /// Saturating multiply-accumulate: `sat(dst + a*b)`.
    MacSat,
    /// Multiply-subtract: `dst - a*b` (wrapping).
    Msu,
}

impl AluOp {
    const ENCODINGS: [AluOp; 29] = [
        AluOp::Nop,
        AluOp::PassA,
        AluOp::PassB,
        AluOp::Add,
        AluOp::AddSat,
        AluOp::Sub,
        AluOp::SubSat,
        AluOp::Neg,
        AluOp::Abs,
        AluOp::AbsDiff,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Not,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Asr,
        AluOp::Min,
        AluOp::Max,
        AluOp::MinU,
        AluOp::MaxU,
        AluOp::Slt,
        AluOp::SltU,
        AluOp::Mul,
        AluOp::MulHi,
        AluOp::MulHiU,
        AluOp::Mac,
        AluOp::MacSat,
        AluOp::Msu,
    ];

    /// 5-bit field encoding.
    pub fn encode(self) -> u8 {
        Self::ENCODINGS
            .iter()
            .position(|op| *op == self)
            .expect("every op has an encoding") as u8
    }

    /// Decodes a 5-bit field.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeMicroError`] for reserved encodings.
    pub fn decode(code: u8) -> Result<Self, DecodeMicroError> {
        Self::ENCODINGS
            .get(code as usize)
            .copied()
            .ok_or(DecodeMicroError::Opcode(code))
    }

    /// `true` for the multiply-accumulate family, which reads the
    /// destination register as a third (implicit) operand.
    pub const fn uses_accumulator(self) -> bool {
        matches!(self, AluOp::Mac | AluOp::MacSat | AluOp::Msu)
    }

    /// `true` if the operation engages the hardwired multiplier.
    pub const fn uses_multiplier(self) -> bool {
        matches!(
            self,
            AluOp::Mul | AluOp::MulHi | AluOp::MulHiU | AluOp::Mac | AluOp::MacSat | AluOp::Msu
        )
    }

    /// Evaluates the operation on already-selected operand values.
    ///
    /// `acc` is the pre-cycle value of the destination register and is only
    /// observed by the multiply-accumulate family.
    #[inline]
    pub fn eval(self, a: Word16, b: Word16, acc: Word16) -> Word16 {
        match self {
            AluOp::Nop => Word16::ZERO,
            AluOp::PassA => a,
            AluOp::PassB => b,
            AluOp::Add => a.wrapping_add(b),
            AluOp::AddSat => a.saturating_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::SubSat => a.saturating_sub(b),
            AluOp::Neg => a.wrapping_neg(),
            AluOp::Abs => a.abs(),
            AluOp::AbsDiff => a.abs_diff(b),
            AluOp::And => a.and(b),
            AluOp::Or => a.or(b),
            AluOp::Xor => a.xor(b),
            AluOp::Not => a.not(),
            AluOp::Shl => a.shl(b),
            AluOp::Shr => a.shr(b),
            AluOp::Asr => a.asr(b),
            AluOp::Min => a.min_s(b),
            AluOp::Max => a.max_s(b),
            AluOp::MinU => a.min_u(b),
            AluOp::MaxU => a.max_u(b),
            AluOp::Slt => a.slt(b),
            AluOp::SltU => a.sltu(b),
            AluOp::Mul => a.mul_lo(b),
            AluOp::MulHi => a.mul_hi(b),
            AluOp::MulHiU => a.mul_hi_unsigned(b),
            AluOp::Mac => acc.wrapping_add(a.mul_lo(b)),
            AluOp::MacSat => {
                let product = a.widening_mul(b);
                let sum = acc.as_i16() as i32 + product;
                Word16::from_i16(sum.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
            }
            AluOp::Msu => acc.wrapping_sub(a.mul_lo(b)),
        }
    }

    /// The mnemonic used by the assembler and disassembler.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Nop => "nop",
            AluOp::PassA => "mov",
            AluOp::PassB => "movb",
            AluOp::Add => "add",
            AluOp::AddSat => "adds",
            AluOp::Sub => "sub",
            AluOp::SubSat => "subs",
            AluOp::Neg => "neg",
            AluOp::Abs => "abs",
            AluOp::AbsDiff => "absd",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Not => "not",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Asr => "asr",
            AluOp::Min => "min",
            AluOp::Max => "max",
            AluOp::MinU => "minu",
            AluOp::MaxU => "maxu",
            AluOp::Slt => "slt",
            AluOp::SltU => "sltu",
            AluOp::Mul => "mul",
            AluOp::MulHi => "mulh",
            AluOp::MulHiU => "mulhu",
            AluOp::Mac => "mac",
            AluOp::MacSat => "macs",
            AluOp::Msu => "msu",
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Error decoding a Dnode microinstruction word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeMicroError {
    /// Reserved opcode field value.
    Opcode(u8),
    /// Reserved operand-selector field value.
    Operand(u8),
    /// Bits that must be zero were set.
    ReservedBits(u64),
}

impl fmt::Display for DecodeMicroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeMicroError::Opcode(c) => write!(f, "reserved dnode opcode {c:#04x}"),
            DecodeMicroError::Operand(c) => write!(f, "reserved operand selector {c:#04x}"),
            DecodeMicroError::ReservedBits(w) => {
                write!(f, "reserved bits set in microinstruction word {w:#018x}")
            }
        }
    }
}

impl std::error::Error for DecodeMicroError {}

/// A complete Dnode microinstruction (one configuration-layer word).
///
/// # Examples
///
/// A single-cycle MAC accumulating `in1 * in2` into `r0` and forwarding the
/// running sum to the next layer:
///
/// ```
/// use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand, Reg};
///
/// let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2)
///     .write_reg(Reg::R0)
///     .write_out();
/// let word = mac.encode();
/// assert_eq!(MicroInstr::decode(word).unwrap(), mac);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MicroInstr {
    /// Datapath operation.
    pub alu: AluOp,
    /// Operand A selector.
    pub src_a: Operand,
    /// Operand B selector.
    pub src_b: Operand,
    /// Register written with the result, if any. For the multiply-accumulate
    /// family this register is also the implicit accumulator input.
    pub wr_reg: Option<Reg>,
    /// Drive the result on the Dnode's layer output (to the next switch).
    pub wr_out: bool,
    /// Drive the result on the shared bus next cycle.
    pub wr_bus: bool,
    /// Immediate field, read through [`Operand::Imm`].
    pub imm: Word16,
}

impl MicroInstr {
    /// The idle microinstruction (reset value of every configuration slot).
    pub const NOP: MicroInstr = MicroInstr {
        alu: AluOp::Nop,
        src_a: Operand::Zero,
        src_b: Operand::Zero,
        wr_reg: None,
        wr_out: false,
        wr_bus: false,
        imm: Word16::ZERO,
    };

    /// Starts building a microinstruction from an operation and two sources.
    pub const fn op(alu: AluOp, src_a: Operand, src_b: Operand) -> Self {
        MicroInstr {
            alu,
            src_a,
            src_b,
            wr_reg: None,
            wr_out: false,
            wr_bus: false,
            imm: Word16::ZERO,
        }
    }

    /// Builder: write the result to `reg`.
    pub const fn write_reg(mut self, reg: Reg) -> Self {
        self.wr_reg = Some(reg);
        self
    }

    /// Builder: drive the result on the layer output.
    pub const fn write_out(mut self) -> Self {
        self.wr_out = true;
        self
    }

    /// Builder: drive the result on the shared bus.
    pub const fn write_bus(mut self) -> Self {
        self.wr_bus = true;
        self
    }

    /// Builder: set the immediate field.
    pub const fn with_imm(mut self, imm: Word16) -> Self {
        self.imm = imm;
        self
    }

    /// Encodes to the 48-bit configuration word (stored in a `u64`).
    ///
    /// Layout: `[0..5)` opcode, `[5..9)` src A, `[9..13)` src B, `[13)` reg
    /// write enable, `[14..16)` reg index, `[16)` out enable, `[17)` bus
    /// enable, `[32..48)` immediate. All other bits are zero.
    pub fn encode(&self) -> u64 {
        let mut w = 0u64;
        w |= self.alu.encode() as u64;
        w |= (self.src_a.encode() as u64) << 5;
        w |= (self.src_b.encode() as u64) << 9;
        if let Some(reg) = self.wr_reg {
            w |= 1 << 13;
            w |= (reg.index() as u64) << 14;
        }
        if self.wr_out {
            w |= 1 << 16;
        }
        if self.wr_bus {
            w |= 1 << 17;
        }
        w |= (self.imm.bits() as u64) << 32;
        w
    }

    /// Decodes a configuration word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeMicroError`] if the opcode or an operand selector is
    /// reserved, or if bits `[18..32)` / `[48..64)` are not zero.
    pub fn decode(word: u64) -> Result<Self, DecodeMicroError> {
        const RESERVED: u64 = !((1 << 18) - 1) & 0xffff_ffff | 0xffff_0000_0000_0000;
        if word & RESERVED != 0 {
            return Err(DecodeMicroError::ReservedBits(word));
        }
        let alu = AluOp::decode((word & 0x1f) as u8)?;
        let src_a = Operand::decode(((word >> 5) & 0xf) as u8)?;
        let src_b = Operand::decode(((word >> 9) & 0xf) as u8)?;
        let wr_reg = if word & (1 << 13) != 0 {
            Reg::from_index(((word >> 14) & 0x3) as usize)
        } else {
            None
        };
        Ok(MicroInstr {
            alu,
            src_a,
            src_b,
            wr_reg,
            wr_out: word & (1 << 16) != 0,
            wr_bus: word & (1 << 17) != 0,
            imm: Word16::new(((word >> 32) & 0xffff) as u16),
        })
    }
}

impl Default for MicroInstr {
    fn default() -> Self {
        MicroInstr::NOP
    }
}

impl fmt::Display for MicroInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}, {}", self.alu, self.src_a, self.src_b)?;
        if self.src_a == Operand::Imm || self.src_b == Operand::Imm {
            write!(f, ", #{}", self.imm)?;
        }
        let mut dests = Vec::new();
        if let Some(reg) = self.wr_reg {
            dests.push(reg.to_string());
        }
        if self.wr_out {
            dests.push("out".to_owned());
        }
        if self.wr_bus {
            dests.push("bus".to_owned());
        }
        if !dests.is_empty() {
            write!(f, " -> {}", dests.join("|"))?;
        }
        Ok(())
    }
}

/// Execution mode of a Dnode (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DnodeMode {
    /// Normal mode: the microinstruction comes from the active configuration
    /// context every cycle, under configuration-controller management.
    #[default]
    Global,
    /// Stand-alone mode: the local sequencer replays `S1..S(LIMIT)`.
    Local,
}

impl fmt::Display for DnodeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnodeMode::Global => f.write_str("global"),
            DnodeMode::Local => f.write_str("local"),
        }
    }
}

/// Number of local-sequencer instruction registers per Dnode (`S1..S8`).
pub const LOCAL_SLOTS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<MicroInstr> {
        let mut v = vec![MicroInstr::NOP];
        for alu in AluOp::ENCODINGS {
            v.push(
                MicroInstr::op(alu, Operand::In1, Operand::Reg(Reg::R2))
                    .write_reg(Reg::R1)
                    .write_out(),
            );
        }
        v.push(
            MicroInstr::op(AluOp::Add, Operand::Imm, Operand::Bus)
                .with_imm(Word16::from_i16(-1234))
                .write_bus(),
        );
        v.push(MicroInstr::op(AluOp::PassA, Operand::Fifo1, Operand::Fifo2).write_out());
        v
    }

    #[test]
    fn encode_decode_round_trips() {
        for instr in sample_instrs() {
            let word = instr.encode();
            assert_eq!(MicroInstr::decode(word).unwrap(), instr, "word {word:#x}");
        }
    }

    #[test]
    fn decode_rejects_reserved_opcode() {
        assert_eq!(MicroInstr::decode(31), Err(DecodeMicroError::Opcode(31)));
    }

    #[test]
    fn decode_rejects_reserved_operand() {
        // opcode 0 with src_a = 15 (reserved).
        let word = 15u64 << 5;
        assert_eq!(MicroInstr::decode(word), Err(DecodeMicroError::Operand(15)));
    }

    #[test]
    fn decode_rejects_reserved_bits() {
        assert!(matches!(
            MicroInstr::decode(1 << 20),
            Err(DecodeMicroError::ReservedBits(_))
        ));
        assert!(matches!(
            MicroInstr::decode(1 << 60),
            Err(DecodeMicroError::ReservedBits(_))
        ));
    }

    #[test]
    fn mac_family_reads_accumulator() {
        let acc = Word16::from_i16(100);
        let a = Word16::from_i16(3);
        let b = Word16::from_i16(-7);
        assert_eq!(AluOp::Mac.eval(a, b, acc).as_i16(), 100 - 21);
        assert_eq!(AluOp::Msu.eval(a, b, acc).as_i16(), 100 + 21);
        assert_eq!(
            AluOp::MacSat
                .eval(
                    Word16::from_i16(200),
                    Word16::from_i16(200),
                    Word16::from_i16(30000)
                )
                .as_i16(),
            i16::MAX
        );
        assert!(AluOp::Mac.uses_accumulator());
        assert!(!AluOp::Add.uses_accumulator());
    }

    #[test]
    fn eval_matches_word_primitives() {
        let a = Word16::from_i16(-5);
        let b = Word16::from_i16(9);
        assert_eq!(AluOp::Add.eval(a, b, Word16::ZERO), a.wrapping_add(b));
        assert_eq!(AluOp::AbsDiff.eval(a, b, Word16::ZERO).as_i16(), 14);
        assert_eq!(AluOp::Nop.eval(a, b, Word16::ZERO), Word16::ZERO);
        assert_eq!(AluOp::PassB.eval(a, b, Word16::ZERO), b);
        assert_eq!(AluOp::Not.eval(a, b, Word16::ZERO), a.not());
    }

    #[test]
    fn multiplier_classification() {
        assert!(AluOp::Mul.uses_multiplier());
        assert!(AluOp::MacSat.uses_multiplier());
        assert!(!AluOp::AbsDiff.uses_multiplier());
    }

    #[test]
    fn display_formats_nicely() {
        let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2)
            .write_reg(Reg::R0)
            .write_out();
        assert_eq!(mac.to_string(), "mac in1, in2 -> r0|out");
        let imm = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R1), Operand::Imm)
            .with_imm(Word16::from_i16(7));
        assert_eq!(imm.to_string(), "add r1, imm, #7");
    }

    #[test]
    fn reg_round_trips() {
        for reg in Reg::ALL {
            assert_eq!(Reg::from_index(reg.index()), Some(reg));
        }
        assert_eq!(Reg::from_index(4), None);
    }

    #[test]
    fn default_mode_is_global() {
        assert_eq!(DnodeMode::default(), DnodeMode::Global);
    }
}
