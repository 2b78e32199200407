//! Binary encoding of TH16 instructions.
//!
//! Every [`Insn`] encodes to one 16-bit halfword, except [`Insn::Bl`] which
//! encodes to the THUMB-style two-halfword pair. Encoding is the exact
//! inverse of [`crate::decode::decode`] for canonically-formed instructions;
//! this is enforced by property tests.

use crate::insn::{Insn, ShiftOp};
use crate::mem::AccessWidth;

fn bits(v: u16, shift: u16) -> u16 {
    v << shift
}

/// Encodes `insn` into one or two halfwords.
///
/// # Panics
///
/// Panics if an operand is out of range for its encoding field (immediates,
/// branch displacements). The assembler validates ranges before encoding, so
/// a panic here indicates a bug in the caller, not bad user input.
pub fn encode(insn: &Insn) -> Vec<u16> {
    match *insn {
        Insn::ShiftImm { op, rd, rm, imm } => {
            assert!(imm < 32, "shift immediate {imm} out of range");
            let opb = match op {
                ShiftOp::Lsl => 0,
                ShiftOp::Lsr => 1,
                ShiftOp::Asr => 2,
            };
            vec![bits(opb, 11) | bits(imm as u16, 6) | bits(rm.num() as u16, 3) | rd.num() as u16]
        }
        Insn::AddReg { rd, rn, rm } => {
            vec![
                0b0001_1000_0000_0000
                    | bits(rm.num() as u16, 6)
                    | bits(rn.num() as u16, 3)
                    | rd.num() as u16,
            ]
        }
        Insn::SubReg { rd, rn, rm } => {
            vec![
                0b0001_1010_0000_0000
                    | bits(rm.num() as u16, 6)
                    | bits(rn.num() as u16, 3)
                    | rd.num() as u16,
            ]
        }
        Insn::AddImm3 { rd, rn, imm } => {
            assert!(imm < 8, "imm3 {imm} out of range");
            vec![
                0b0001_1100_0000_0000
                    | bits(imm as u16, 6)
                    | bits(rn.num() as u16, 3)
                    | rd.num() as u16,
            ]
        }
        Insn::SubImm3 { rd, rn, imm } => {
            assert!(imm < 8, "imm3 {imm} out of range");
            vec![
                0b0001_1110_0000_0000
                    | bits(imm as u16, 6)
                    | bits(rn.num() as u16, 3)
                    | rd.num() as u16,
            ]
        }
        Insn::MovImm { rd, imm } => {
            vec![0b0010_0000_0000_0000 | bits(rd.num() as u16, 8) | imm as u16]
        }
        Insn::CmpImm { rd, imm } => {
            vec![0b0010_1000_0000_0000 | bits(rd.num() as u16, 8) | imm as u16]
        }
        Insn::AddImm { rd, imm } => {
            vec![0b0011_0000_0000_0000 | bits(rd.num() as u16, 8) | imm as u16]
        }
        Insn::SubImm { rd, imm } => {
            vec![0b0011_1000_0000_0000 | bits(rd.num() as u16, 8) | imm as u16]
        }
        Insn::Alu { op, rd, rm } => {
            vec![
                0b0100_0000_0000_0000
                    | bits(op as u16, 6)
                    | bits(rm.num() as u16, 3)
                    | rd.num() as u16,
            ]
        }
        Insn::MovReg { rd, rm } => {
            vec![0b0100_0100_0000_0000 | bits(rm.num() as u16, 3) | rd.num() as u16]
        }
        Insn::Sdiv { rd, rm } => {
            vec![0b0100_0101_0000_0000 | bits(rm.num() as u16, 3) | rd.num() as u16]
        }
        Insn::Udiv { rd, rm } => {
            vec![0b0100_0110_0000_0000 | bits(rm.num() as u16, 3) | rd.num() as u16]
        }
        Insn::Ret => vec![0b0100_0111_0000_0000],
        Insn::LdrLit { rd, imm } => {
            vec![0b0100_1000_0000_0000 | bits(rd.num() as u16, 8) | imm as u16]
        }
        Insn::LdrReg {
            width,
            signed,
            rd,
            rn,
            rm,
        } => {
            let op: u16 = match (width, signed) {
                (AccessWidth::Byte, true) => 0b011,
                (AccessWidth::Word, false) => 0b100,
                (AccessWidth::Half, false) => 0b101,
                (AccessWidth::Byte, false) => 0b110,
                (AccessWidth::Half, true) => 0b111,
                (AccessWidth::Word, true) => panic!("signed word load is not encodable"),
            };
            vec![
                0b0101_0000_0000_0000
                    | bits(op, 9)
                    | bits(rm.num() as u16, 6)
                    | bits(rn.num() as u16, 3)
                    | rd.num() as u16,
            ]
        }
        Insn::StrReg { width, rd, rn, rm } => {
            let op: u16 = match width {
                AccessWidth::Word => 0b000,
                AccessWidth::Half => 0b001,
                AccessWidth::Byte => 0b010,
            };
            vec![
                0b0101_0000_0000_0000
                    | bits(op, 9)
                    | bits(rm.num() as u16, 6)
                    | bits(rn.num() as u16, 3)
                    | rd.num() as u16,
            ]
        }
        Insn::LdrImm { width, rd, rn, off } | Insn::StrImm { width, rd, rn, off } => {
            let load = matches!(insn, Insn::LdrImm { .. });
            let scale = width.bytes() as u8;
            assert!(
                off % scale == 0,
                "offset {off} not aligned to {width} access"
            );
            let imm5 = (off / scale) as u16;
            assert!(
                imm5 < 32,
                "offset {off} out of range for {width} imm access"
            );
            let l = if load { 1u16 } else { 0 };
            let base = match width {
                AccessWidth::Word => 0b0110_0000_0000_0000,
                AccessWidth::Byte => 0b0111_0000_0000_0000,
                AccessWidth::Half => 0b1000_0000_0000_0000,
            };
            vec![base | bits(l, 11) | bits(imm5, 6) | bits(rn.num() as u16, 3) | rd.num() as u16]
        }
        Insn::LdrSp { rd, imm } => {
            vec![0b1001_1000_0000_0000 | bits(rd.num() as u16, 8) | imm as u16]
        }
        Insn::StrSp { rd, imm } => {
            vec![0b1001_0000_0000_0000 | bits(rd.num() as u16, 8) | imm as u16]
        }
        Insn::Adr { rd, imm } => {
            vec![0b1010_0000_0000_0000 | bits(rd.num() as u16, 8) | imm as u16]
        }
        Insn::AddSp { rd, imm } => {
            vec![0b1010_1000_0000_0000 | bits(rd.num() as u16, 8) | imm as u16]
        }
        Insn::AdjSp { delta } => {
            assert!(delta % 4 == 0, "sp adjustment {delta} not a multiple of 4");
            assert!(
                (-508..=508).contains(&delta),
                "sp adjustment {delta} out of range"
            );
            let neg = delta < 0;
            let mag = delta.unsigned_abs() / 4;
            assert!(!(neg && mag == 0), "negative zero sp adjustment");
            vec![0b1011_0000_0000_0000 | bits(neg as u16, 7) | mag]
        }
        Insn::Push { regs, lr } => {
            vec![0b1011_0100_0000_0000 | bits(lr as u16, 8) | regs.0 as u16]
        }
        Insn::Pop { regs, pc } => vec![0b1011_1100_0000_0000 | bits(pc as u16, 8) | regs.0 as u16],
        Insn::Nop => vec![0b1011_1111_0000_0000],
        Insn::BCond { cond, off } => {
            assert!(off % 2 == 0, "branch displacement {off} is odd");
            let h = off / 2;
            assert!(
                (-128..=127).contains(&h),
                "BCond displacement {off} out of range"
            );
            vec![0b1101_0000_0000_0000 | bits(cond.bits() as u16, 8) | (h as u8) as u16]
        }
        Insn::Swi { imm } => vec![0b1101_1111_0000_0000 | imm as u16],
        Insn::B { off } => {
            assert!(off % 2 == 0, "branch displacement {off} is odd");
            let h = off / 2;
            assert!(
                (-1024..=1023).contains(&h),
                "B displacement {off} out of range"
            );
            vec![0b1110_0000_0000_0000 | (h as u16 & 0x7FF)]
        }
        Insn::Bl { off } => {
            assert!(off % 2 == 0, "branch displacement {off} is odd");
            let h = off / 2;
            assert!(
                (-(1 << 21)..(1 << 21)).contains(&h),
                "BL displacement {off} out of range"
            );
            let h = h as u32 & 0x3F_FFFF;
            let hi = ((h >> 11) & 0x7FF) as u16;
            let lo = (h & 0x7FF) as u16;
            vec![0b1111_0000_0000_0000 | hi, 0b1111_1000_0000_0000 | lo]
        }
        Insn::Undefined { raw } => vec![raw],
    }
}

/// Encodes a sequence of instructions into a flat halfword stream.
pub fn encode_all(insns: &[Insn]) -> Vec<u16> {
    let mut out = Vec::with_capacity(insns.len());
    for i in insns {
        out.extend(encode(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cond;
    use crate::reg::{RegList, R0, R1, R2};

    #[test]
    fn bl_pair_shape() {
        let hw = encode(&Insn::Bl { off: 0x1000 });
        assert_eq!(hw.len(), 2);
        assert_eq!(hw[0] & 0xF800, 0xF000, "hi halfword prefix");
        assert_eq!(hw[1] & 0xF800, 0xF800, "lo halfword prefix");
    }

    #[test]
    fn nop_is_bf00() {
        assert_eq!(encode(&Insn::Nop), vec![0xBF00]);
    }

    #[test]
    fn push_pop_reglist_bits() {
        let hw = encode(&Insn::Push {
            regs: RegList::of(&[R0, R2]),
            lr: true,
        });
        assert_eq!(hw[0] & 0xFF, 0b0000_0101);
        assert_eq!(hw[0] & 0x100, 0x100);
        let hw = encode(&Insn::Pop {
            regs: RegList::of(&[R1]),
            pc: false,
        });
        assert_eq!(hw[0] & 0x100, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bcond_range_checked() {
        let _ = encode(&Insn::BCond {
            cond: Cond::Eq,
            off: 300,
        });
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_word_offset_rejected() {
        let _ = encode(&Insn::LdrImm {
            width: AccessWidth::Word,
            rd: R0,
            rn: R1,
            off: 6,
        });
    }

    #[test]
    fn negative_branch_encodes() {
        let hw = encode(&Insn::B { off: -4 });
        assert_eq!(hw[0] & 0xF800, 0xE000);
        let hw = encode(&Insn::BCond {
            cond: Cond::Ne,
            off: -2,
        });
        assert_eq!(hw[0] & 0xFF, 0xFF);
    }
}
