//! Code generation: typed MiniC → TH16 assembly.
//!
//! The generator uses a simple and predictable register discipline that the
//! WCET analyzer can rely on:
//!
//! * `r0..r5` form an expression-evaluation stack (`gen_expr(e, d)` leaves
//!   the value in `r<d>` and touches only `r<d>..r5`);
//! * `r6` and `r7` are scratch (spill partner, remainder lowering, global
//!   address formation);
//! * locals and parameters live in SP-relative word slots;
//! * every global data access is emitted with an [`AccessHint`] so the
//!   linker can auto-generate the paper's address annotations;
//! * every loop carries its `__loopbound` as a header-label hint.

use crate::ast::{BinOp, Expr, Stmt, Type, UnOp};
use crate::module::{GlobalDef, ObjModule};
use crate::sema::{TypedFunc, TypedProgram};
use crate::{CcError, Pos};
use spmlab_isa::asm::{AccessHint, FuncBuilder, LitValue};
use spmlab_isa::cond::Cond;
use spmlab_isa::insn::{AluOp, Insn, ShiftOp};
use spmlab_isa::mem::AccessWidth;
use spmlab_isa::reg::{Reg, RegList, R0, R4, R5, R6, R7};

/// Highest register used by the expression evaluation stack.
const MAX_EVAL: u8 = 5;

/// Generates a relocatable module from a checked program.
///
/// # Errors
///
/// Propagates assembler errors (branch/literal range overflows) as
/// [`CcError::Isa`]; everything else was caught by earlier phases.
pub fn generate(tp: &TypedProgram) -> Result<ObjModule, CcError> {
    let mut funcs = Vec::with_capacity(tp.funcs.len());
    for tf in &tp.funcs {
        funcs.push(gen_func(tp, tf)?);
    }
    let globals = tp
        .globals
        .iter()
        .map(|g| GlobalDef {
            name: g.name.clone(),
            width: width_of(g.ty),
            count: g.array_len.unwrap_or(1),
            init: g.init.clone(),
        })
        .collect();
    Ok(ObjModule { funcs, globals })
}

fn width_of(ty: Type) -> AccessWidth {
    match ty {
        Type::Int => AccessWidth::Word,
        Type::Short => AccessWidth::Half,
        Type::Char => AccessWidth::Byte,
        Type::Void => AccessWidth::Word,
    }
}

struct LoopCx {
    break_label: String,
    continue_label: String,
    header_label: String,
}

struct Gen<'a> {
    tp: &'a TypedProgram,
    tf: &'a TypedFunc,
    f: FuncBuilder,
    frame_words: u32,
    labels: u32,
    loops: Vec<LoopCx>,
    ret_label: String,
    /// Words currently pushed on the stack *below* the frame (spills and
    /// call-saves). Local slot accesses must be biased by this amount so
    /// SP-relative offsets stay correct during nested evaluation.
    spill_words: u32,
}

fn gen_func(tp: &TypedProgram, tf: &TypedFunc) -> Result<spmlab_isa::asm::ObjFunc, CcError> {
    let mut g = Gen {
        tp,
        tf,
        f: FuncBuilder::new(tf.func.name.clone()),
        frame_words: tf.locals.len() as u32,
        labels: 0,
        loops: Vec::new(),
        ret_label: ".Lret".into(),
        spill_words: 0,
    };
    if g.frame_words > 255 {
        return Err(CcError::Sema {
            pos: tf.func.pos,
            msg: format!(
                "`{}` needs {} local slots; MiniC allows 255",
                tf.func.name, g.frame_words
            ),
        });
    }

    // Prologue.
    g.f.push(Insn::Push {
        regs: RegList::of(&[R4, R5, R6, R7]),
        lr: true,
    });
    g.adjust_sp(-(g.frame_words as i32 * 4));
    for (i, _) in tf.func.params.iter().enumerate() {
        g.f.push(Insn::StrSp {
            rd: Reg::new(i as u8),
            imm: i as u8,
        });
    }

    g.gen_block(&tf.func.body)?;

    // Epilogue (single exit).
    g.f.label(g.ret_label.clone());
    g.adjust_sp(g.frame_words as i32 * 4);
    g.f.push(Insn::Pop {
        regs: RegList::of(&[R4, R5, R6, R7]),
        pc: true,
    });

    g.f.assemble().map_err(CcError::from)
}

impl<'a> Gen<'a> {
    fn fresh(&mut self, tag: &str) -> String {
        self.labels += 1;
        format!(".L{}_{}", tag, self.labels)
    }

    fn adjust_sp(&mut self, mut delta: i32) {
        while delta != 0 {
            let chunk = delta.clamp(-508, 508);
            self.f.push(Insn::AdjSp {
                delta: chunk as i16,
            });
            delta -= chunk;
        }
    }

    fn sema_err<T>(&self, pos: Pos, msg: impl Into<String>) -> Result<T, CcError> {
        Err(CcError::Sema {
            pos,
            msg: msg.into(),
        })
    }

    /// SP-relative slot index for a local, accounting for words currently
    /// pushed below the frame. `LdrSp`/`StrSp` encode it in 8 bits, so a
    /// deep local under many spilled words is a compile error.
    fn slot_imm(&self, slot: usize) -> Result<u8, CcError> {
        let biased = slot as u32 + self.spill_words;
        u8::try_from(biased).or_else(|_| {
            self.sema_err(
                self.tf.func.pos,
                format!(
                    "`{}` addresses a local at stack offset {} words; MiniC allows 255",
                    self.tf.func.name, biased
                ),
            )
        })
    }

    fn load_local(&mut self, rd: Reg, slot: usize) -> Result<(), CcError> {
        let imm = self.slot_imm(slot)?;
        self.f.push(Insn::LdrSp { rd, imm });
        Ok(())
    }

    fn store_local(&mut self, rd: Reg, slot: usize) -> Result<(), CcError> {
        let imm = self.slot_imm(slot)?;
        self.f.push(Insn::StrSp { rd, imm });
        Ok(())
    }

    fn gen_block(&mut self, stmts: &[Stmt]) -> Result<(), CcError> {
        for s in stmts {
            self.gen_stmt(s)?;
        }
        Ok(())
    }

    fn gen_stmt(&mut self, s: &Stmt) -> Result<(), CcError> {
        match s {
            Stmt::Decl { name, init, .. } => {
                if let Some(e) = init {
                    self.gen_expr(e, 0)?;
                    let slot = self.tf.local_slot(name).expect("sema resolved");
                    self.store_local(R0, slot)?;
                }
                Ok(())
            }
            Stmt::Expr(e) => self.gen_expr(e, 0),
            Stmt::If {
                cond, then, else_, ..
            } => {
                let l_else = self.fresh("else");
                let l_end = self.fresh("endif");
                self.gen_branch(cond, 0, &l_else, false)?;
                self.gen_block(then)?;
                if else_.is_empty() {
                    self.f.label(l_else);
                } else {
                    self.f.b(l_end.clone());
                    self.f.label(l_else);
                    self.gen_block(else_)?;
                    self.f.label(l_end);
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let head = self.fresh("while");
                let end = self.fresh("wend");
                self.f.label(head.clone());
                self.gen_branch(cond, 0, &end, false)?;
                self.loops.push(LoopCx {
                    break_label: end.clone(),
                    continue_label: head.clone(),
                    header_label: head.clone(),
                });
                self.gen_block(body)?;
                self.loops.pop();
                self.f.b(head);
                self.f.label(end);
                Ok(())
            }
            Stmt::DoWhile { body, cond, .. } => {
                let head = self.fresh("do");
                let check = self.fresh("docheck");
                let end = self.fresh("doend");
                self.f.label(head.clone());
                self.loops.push(LoopCx {
                    break_label: end.clone(),
                    continue_label: check.clone(),
                    header_label: head.clone(),
                });
                self.gen_block(body)?;
                self.loops.pop();
                self.f.label(check);
                self.gen_branch(cond, 0, &head, true)?;
                self.f.label(end);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.gen_stmt(i)?;
                }
                let head = self.fresh("for");
                let stepl = self.fresh("forstep");
                let end = self.fresh("forend");
                self.f.label(head.clone());
                if let Some(c) = cond {
                    self.gen_branch(c, 0, &end, false)?;
                }
                self.loops.push(LoopCx {
                    break_label: end.clone(),
                    continue_label: stepl.clone(),
                    header_label: head.clone(),
                });
                self.gen_block(body)?;
                self.loops.pop();
                self.f.label(stepl);
                if let Some(st) = step {
                    self.gen_expr(st, 0)?;
                }
                self.f.b(head);
                self.f.label(end);
                Ok(())
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.gen_expr(e, 0)?;
                }
                self.f.b(self.ret_label.clone());
                Ok(())
            }
            Stmt::Break { pos } => match self.loops.last() {
                Some(l) => {
                    let t = l.break_label.clone();
                    self.f.b(t);
                    Ok(())
                }
                None => self.sema_err(*pos, "break outside loop"),
            },
            Stmt::Continue { pos } => match self.loops.last() {
                Some(l) => {
                    let t = l.continue_label.clone();
                    self.f.b(t);
                    Ok(())
                }
                None => self.sema_err(*pos, "continue outside loop"),
            },
            Stmt::LoopBound { bound, pos } => match self.loops.last() {
                Some(l) => {
                    let h = l.header_label.clone();
                    self.f.loop_hint(h, *bound);
                    Ok(())
                }
                None => self.sema_err(*pos, "__loopbound outside loop"),
            },
            Stmt::LoopTotal { total, pos } => match self.loops.last() {
                Some(l) => {
                    let h = l.header_label.clone();
                    self.f.loop_total_hint(h, *total);
                    Ok(())
                }
                None => self.sema_err(*pos, "__looptotal outside loop"),
            },
            Stmt::Block(b) => self.gen_block(b),
        }
    }

    /// Emits a branch to `target` taken when `e` is true (`when == true`)
    /// or false (`when == false`); falls through otherwise.
    fn gen_branch(&mut self, e: &Expr, d: u8, target: &str, when: bool) -> Result<(), CcError> {
        match e {
            Expr::Num { value, .. } => {
                if (*value != 0) == when {
                    self.f.b(target);
                }
                Ok(())
            }
            Expr::Un {
                op: UnOp::Not,
                operand,
                ..
            } => self.gen_branch(operand, d, target, !when),
            Expr::Bin { op, lhs, rhs, .. } if op.is_comparison() => {
                self.gen_compare(lhs, rhs, d)?;
                let mut cond = cond_of(*op);
                if !when {
                    cond = cond.invert();
                }
                self.f.bcond(cond, target);
                Ok(())
            }
            Expr::Bin {
                op: BinOp::LogAnd,
                lhs,
                rhs,
                ..
            } => {
                if when {
                    let skip = self.fresh("andskip");
                    self.gen_branch(lhs, d, &skip, false)?;
                    self.gen_branch(rhs, d, target, true)?;
                    self.f.label(skip);
                } else {
                    self.gen_branch(lhs, d, target, false)?;
                    self.gen_branch(rhs, d, target, false)?;
                }
                Ok(())
            }
            Expr::Bin {
                op: BinOp::LogOr,
                lhs,
                rhs,
                ..
            } => {
                if when {
                    self.gen_branch(lhs, d, target, true)?;
                    self.gen_branch(rhs, d, target, true)?;
                } else {
                    let skip = self.fresh("orskip");
                    self.gen_branch(lhs, d, &skip, true)?;
                    self.gen_branch(rhs, d, target, false)?;
                    self.f.label(skip);
                }
                Ok(())
            }
            _ => {
                self.gen_expr(e, d)?;
                self.f.push(Insn::CmpImm {
                    rd: Reg::new(d),
                    imm: 0,
                });
                self.f.bcond(if when { Cond::Ne } else { Cond::Eq }, target);
                Ok(())
            }
        }
    }

    /// Emits a comparison of `lhs` and `rhs`, leaving only flags live.
    fn gen_compare(&mut self, lhs: &Expr, rhs: &Expr, d: u8) -> Result<(), CcError> {
        self.gen_expr(lhs, d)?;
        if let Expr::Num { value, .. } = rhs {
            if (0..=255).contains(value) {
                self.f.push(Insn::CmpImm {
                    rd: Reg::new(d),
                    imm: *value as u8,
                });
                return Ok(());
            }
        }
        let (a, b) = self.gen_rhs(rhs, d)?;
        self.f.push(Insn::Alu {
            op: AluOp::Cmp,
            rd: a,
            rm: b,
        });
        Ok(())
    }

    /// Evaluates `rhs` given that a value is live in `r<d>`; returns the
    /// register pair `(lhs_reg, rhs_reg)` afterwards. Spills through the
    /// stack when the evaluation stack is exhausted.
    fn gen_rhs(&mut self, rhs: &Expr, d: u8) -> Result<(Reg, Reg), CcError> {
        if d < MAX_EVAL {
            self.gen_expr(rhs, d + 1)?;
            Ok((Reg::new(d), Reg::new(d + 1)))
        } else {
            self.f.push(Insn::Push {
                regs: RegList::of(&[R5]),
                lr: false,
            });
            self.spill_words += 1;
            self.gen_expr(rhs, MAX_EVAL)?;
            self.spill_words -= 1;
            self.f.push(Insn::MovReg { rd: R6, rm: R5 });
            self.f.push(Insn::Pop {
                regs: RegList::of(&[R5]),
                pc: false,
            });
            Ok((R5, R6))
        }
    }

    /// Evaluates `e` into `r<d>`, using only `r<d>..r5` plus `r6`/`r7`.
    fn gen_expr(&mut self, e: &Expr, d: u8) -> Result<(), CcError> {
        debug_assert!(d <= MAX_EVAL);
        let rd = Reg::new(d);
        match e {
            Expr::Num { value, .. } => {
                self.load_const(rd, *value as i32);
                Ok(())
            }
            Expr::Var { name, pos } => {
                if let Some(slot) = self.tf.local_slot(name) {
                    return self.load_local(rd, slot);
                }
                let info = match self.tp.global_info.get(name) {
                    Some(i) => *i,
                    None => return self.sema_err(*pos, format!("undefined `{name}`")),
                };
                let width = width_of(info.ty);
                let hint = AccessHint::Global {
                    symbol: name.clone(),
                    exact_offset: Some(0),
                };
                match width {
                    AccessWidth::Word => {
                        self.f.ldr_lit(rd, LitValue::SymbolAddr(name.clone()));
                        self.f.push_access(
                            Insn::LdrImm {
                                width,
                                rd,
                                rn: rd,
                                off: 0,
                            },
                            hint,
                        );
                    }
                    _ => {
                        // Sign-extending loads only exist register-offset.
                        self.f.ldr_lit(R7, LitValue::SymbolAddr(name.clone()));
                        self.f.push(Insn::MovImm { rd, imm: 0 });
                        self.f.push_access(
                            Insn::LdrReg {
                                width,
                                signed: true,
                                rd,
                                rn: R7,
                                rm: rd,
                            },
                            hint,
                        );
                    }
                }
                Ok(())
            }
            Expr::Index { name, index, pos } => {
                let info = match self.tp.global_info.get(name) {
                    Some(i) => *i,
                    None => return self.sema_err(*pos, format!("undefined `{name}`")),
                };
                let width = width_of(info.ty);
                let signed = info.ty != Type::Int;
                if let Expr::Num { value, .. } = index.as_ref() {
                    // Constant element: exact address annotation.
                    let off = *value as u32 * width.bytes();
                    let hint = AccessHint::Global {
                        symbol: name.clone(),
                        exact_offset: Some(off),
                    };
                    if width == AccessWidth::Word && off <= 124 {
                        self.f.ldr_lit(rd, LitValue::SymbolAddr(name.clone()));
                        self.f.push_access(
                            Insn::LdrImm {
                                width,
                                rd,
                                rn: rd,
                                off: off as u8,
                            },
                            hint,
                        );
                    } else {
                        self.f.ldr_lit(R7, LitValue::SymbolAddr(name.clone()));
                        self.load_const(rd, off as i32);
                        self.f.push_access(
                            Insn::LdrReg {
                                width,
                                signed,
                                rd,
                                rn: R7,
                                rm: rd,
                            },
                            hint,
                        );
                    }
                    return Ok(());
                }
                self.gen_expr(index, d)?;
                self.scale_index(rd, width);
                self.f.ldr_lit(R7, LitValue::SymbolAddr(name.clone()));
                self.f.push_access(
                    Insn::LdrReg {
                        width,
                        signed,
                        rd,
                        rn: R7,
                        rm: rd,
                    },
                    AccessHint::Global {
                        symbol: name.clone(),
                        exact_offset: None,
                    },
                );
                Ok(())
            }
            Expr::Assign { lhs, rhs, pos } => self.gen_assign(lhs, rhs, d, *pos),
            Expr::Un { op, operand, .. } => match op {
                UnOp::Neg => {
                    self.gen_expr(operand, d)?;
                    self.f.push(Insn::Alu {
                        op: AluOp::Neg,
                        rd,
                        rm: rd,
                    });
                    Ok(())
                }
                UnOp::BitNot => {
                    self.gen_expr(operand, d)?;
                    self.f.push(Insn::Alu {
                        op: AluOp::Mvn,
                        rd,
                        rm: rd,
                    });
                    Ok(())
                }
                UnOp::Not => {
                    self.materialize_bool(e, d)?;
                    Ok(())
                }
            },
            Expr::Bin { op, lhs, rhs, .. } => {
                if op.is_comparison() || matches!(op, BinOp::LogAnd | BinOp::LogOr) {
                    return self.materialize_bool(e, d);
                }
                // Constant-immediate fast paths.
                if let Expr::Num { value, .. } = rhs.as_ref() {
                    let v = *value;
                    match op {
                        BinOp::Add if (0..=255).contains(&v) => {
                            self.gen_expr(lhs, d)?;
                            self.f.push(Insn::AddImm { rd, imm: v as u8 });
                            return Ok(());
                        }
                        BinOp::Sub if (0..=255).contains(&v) => {
                            self.gen_expr(lhs, d)?;
                            self.f.push(Insn::SubImm { rd, imm: v as u8 });
                            return Ok(());
                        }
                        BinOp::Shl if (0..32).contains(&v) => {
                            self.gen_expr(lhs, d)?;
                            self.f.push(Insn::ShiftImm {
                                op: ShiftOp::Lsl,
                                rd,
                                rm: rd,
                                imm: v as u8,
                            });
                            return Ok(());
                        }
                        BinOp::Shr if (0..32).contains(&v) => {
                            self.gen_expr(lhs, d)?;
                            self.f.push(Insn::ShiftImm {
                                op: ShiftOp::Asr,
                                rd,
                                rm: rd,
                                imm: v as u8,
                            });
                            return Ok(());
                        }
                        BinOp::Mul if v > 0 && (v as u64).is_power_of_two() => {
                            self.gen_expr(lhs, d)?;
                            let k = (v as u64).trailing_zeros() as u8;
                            if k > 0 {
                                self.f.push(Insn::ShiftImm {
                                    op: ShiftOp::Lsl,
                                    rd,
                                    rm: rd,
                                    imm: k,
                                });
                            }
                            return Ok(());
                        }
                        _ => {}
                    }
                }
                self.gen_expr(lhs, d)?;
                let (a, b) = self.gen_rhs(rhs, d)?;
                self.apply_binop(*op, a, b);
                if a != rd {
                    self.f.push(Insn::MovReg { rd, rm: a });
                }
                Ok(())
            }
            Expr::Call { name, args, pos } => {
                let Some(sig) = self.tp.sigs.get(name) else {
                    return self.sema_err(*pos, format!("undefined function `{name}`"));
                };
                debug_assert_eq!(sig.params.len(), args.len());
                // Save the live prefix of the evaluation stack.
                let live = RegList((1u16.wrapping_shl(d as u32) - 1) as u8);
                if !live.is_empty() {
                    self.f.push(Insn::Push {
                        regs: live,
                        lr: false,
                    });
                    self.spill_words += live.len();
                }
                for (i, a) in args.iter().enumerate() {
                    self.gen_expr(a, i as u8)?;
                }
                if !live.is_empty() {
                    self.spill_words -= live.len();
                }
                self.f.bl(name.clone());
                if d != 0 {
                    self.f.push(Insn::MovReg { rd, rm: R0 });
                }
                if !live.is_empty() {
                    self.f.push(Insn::Pop {
                        regs: live,
                        pc: false,
                    });
                }
                Ok(())
            }
        }
    }

    fn gen_assign(&mut self, lhs: &Expr, rhs: &Expr, d: u8, pos: Pos) -> Result<(), CcError> {
        let rd = Reg::new(d);
        match lhs {
            Expr::Var { name, .. } => {
                self.gen_expr(rhs, d)?;
                if let Some(slot) = self.tf.local_slot(name) {
                    return self.store_local(rd, slot);
                }
                let info = self.tp.global_info[name.as_str()];
                let width = width_of(info.ty);
                self.f.ldr_lit(R7, LitValue::SymbolAddr(name.clone()));
                self.f.push_access(
                    Insn::StrImm {
                        width,
                        rd,
                        rn: R7,
                        off: 0,
                    },
                    AccessHint::Global {
                        symbol: name.clone(),
                        exact_offset: Some(0),
                    },
                );
                Ok(())
            }
            Expr::Index { name, index, .. } => {
                let info = self.tp.global_info[name.as_str()];
                let width = width_of(info.ty);
                self.gen_expr(rhs, d)?;
                if let Expr::Num { value, .. } = index.as_ref() {
                    let off = *value as u32 * width.bytes();
                    let hint = AccessHint::Global {
                        symbol: name.clone(),
                        exact_offset: Some(off),
                    };
                    self.f.ldr_lit(R7, LitValue::SymbolAddr(name.clone()));
                    let scale = width.bytes();
                    if off / scale < 32 {
                        self.f.push_access(
                            Insn::StrImm {
                                width,
                                rd,
                                rn: R7,
                                off: off as u8,
                            },
                            hint,
                        );
                    } else {
                        self.load_const(R6, off as i32);
                        self.f.push(Insn::AddReg {
                            rd: R7,
                            rn: R7,
                            rm: R6,
                        });
                        self.f.push_access(
                            Insn::StrImm {
                                width,
                                rd,
                                rn: R7,
                                off: 0,
                            },
                            hint,
                        );
                    }
                    return Ok(());
                }
                let hint = AccessHint::Global {
                    symbol: name.clone(),
                    exact_offset: None,
                };
                if d < MAX_EVAL {
                    let ri = Reg::new(d + 1);
                    self.gen_expr(index, d + 1)?;
                    self.scale_index(ri, width);
                    self.f.ldr_lit(R7, LitValue::SymbolAddr(name.clone()));
                    self.f.push(Insn::AddReg {
                        rd: R7,
                        rn: R7,
                        rm: ri,
                    });
                    self.f.push_access(
                        Insn::StrImm {
                            width,
                            rd,
                            rn: R7,
                            off: 0,
                        },
                        hint,
                    );
                } else {
                    // Value in r5; spill it while computing the index.
                    self.f.push(Insn::Push {
                        regs: RegList::of(&[R5]),
                        lr: false,
                    });
                    self.spill_words += 1;
                    self.gen_expr(index, MAX_EVAL)?;
                    self.spill_words -= 1;
                    self.scale_index(R5, width);
                    self.f.ldr_lit(R7, LitValue::SymbolAddr(name.clone()));
                    self.f.push(Insn::AddReg {
                        rd: R7,
                        rn: R7,
                        rm: R5,
                    });
                    self.f.push(Insn::Pop {
                        regs: RegList::of(&[R5]),
                        pc: false,
                    });
                    self.f.push_access(
                        Insn::StrImm {
                            width,
                            rd: R5,
                            rn: R7,
                            off: 0,
                        },
                        hint,
                    );
                }
                Ok(())
            }
            _ => self.sema_err(pos, "assignment target must be a variable or array element"),
        }
    }

    fn scale_index(&mut self, r: Reg, width: AccessWidth) {
        let k = width.bytes().trailing_zeros() as u8;
        if k > 0 {
            self.f.push(Insn::ShiftImm {
                op: ShiftOp::Lsl,
                rd: r,
                rm: r,
                imm: k,
            });
        }
    }

    /// Materialises a 0/1 truth value for comparisons, `!`, `&&`, `||`.
    fn materialize_bool(&mut self, e: &Expr, d: u8) -> Result<(), CcError> {
        let rd = Reg::new(d);
        let l_true = self.fresh("btrue");
        let l_end = self.fresh("bend");
        self.gen_branch(e, d, &l_true, true)?;
        self.f.push(Insn::MovImm { rd, imm: 0 });
        self.f.b(l_end.clone());
        self.f.label(l_true);
        self.f.push(Insn::MovImm { rd, imm: 1 });
        self.f.label(l_end);
        Ok(())
    }

    fn apply_binop(&mut self, op: BinOp, a: Reg, b: Reg) {
        match op {
            BinOp::Add => self.f.push(Insn::AddReg {
                rd: a,
                rn: a,
                rm: b,
            }),
            BinOp::Sub => self.f.push(Insn::SubReg {
                rd: a,
                rn: a,
                rm: b,
            }),
            BinOp::Mul => self.f.push(Insn::Alu {
                op: AluOp::Mul,
                rd: a,
                rm: b,
            }),
            BinOp::Div => self.f.push(Insn::Sdiv { rd: a, rm: b }),
            BinOp::Rem => {
                // a % b = a - (a / b) * b, staged through r7.
                self.f.push(Insn::MovReg { rd: R7, rm: a });
                self.f.push(Insn::Sdiv { rd: R7, rm: b });
                self.f.push(Insn::Alu {
                    op: AluOp::Mul,
                    rd: R7,
                    rm: b,
                });
                self.f.push(Insn::SubReg {
                    rd: a,
                    rn: a,
                    rm: R7,
                });
            }
            BinOp::And => self.f.push(Insn::Alu {
                op: AluOp::And,
                rd: a,
                rm: b,
            }),
            BinOp::Or => self.f.push(Insn::Alu {
                op: AluOp::Orr,
                rd: a,
                rm: b,
            }),
            BinOp::Xor => self.f.push(Insn::Alu {
                op: AluOp::Eor,
                rd: a,
                rm: b,
            }),
            BinOp::Shl => self.f.push(Insn::Alu {
                op: AluOp::Lsl,
                rd: a,
                rm: b,
            }),
            BinOp::Shr => self.f.push(Insn::Alu {
                op: AluOp::Asr,
                rd: a,
                rm: b,
            }),
            BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::LogAnd
            | BinOp::LogOr => unreachable!("handled by materialize_bool"),
        }
    }

    fn load_const(&mut self, rd: Reg, v: i32) {
        if (0..=255).contains(&v) {
            self.f.push(Insn::MovImm { rd, imm: v as u8 });
        } else if (-255..0).contains(&v) {
            self.f.push(Insn::MovImm {
                rd,
                imm: (-v) as u8,
            });
            self.f.push(Insn::Alu {
                op: AluOp::Neg,
                rd,
                rm: rd,
            });
        } else {
            self.f.ldr_lit(rd, LitValue::Const(v as u32));
        }
    }
}

fn cond_of(op: BinOp) -> Cond {
    match op {
        BinOp::Eq => Cond::Eq,
        BinOp::Ne => Cond::Ne,
        BinOp::Lt => Cond::Lt,
        BinOp::Le => Cond::Le,
        BinOp::Gt => Cond::Gt,
        BinOp::Ge => Cond::Ge,
        _ => unreachable!("not a comparison"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::sema::check;

    fn gen(src: &str) -> ObjModule {
        generate(&check(&parse(&lex(src).unwrap()).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn simple_function_assembles() {
        let m = gen("int f(int a, int b) { return a + b; }");
        let f = m.func("f").unwrap();
        assert!(f.code_size > 0);
        assert!(f.call_relocs.is_empty());
    }

    #[test]
    fn globals_collected_with_widths() {
        let m = gen("int a; short t[3] = {1,2}; char c; void main() { a = 1; }");
        assert_eq!(m.globals.len(), 3);
        assert_eq!(m.global("t").unwrap().width, AccessWidth::Half);
        assert_eq!(m.global("t").unwrap().size_bytes(), 6);
        assert_eq!(m.global("c").unwrap().width, AccessWidth::Byte);
    }

    #[test]
    fn loop_hints_attach_to_headers() {
        let m = gen("void main() { int i; for (i = 0; i < 8; i = i + 1) { __loopbound(8); } }");
        let f = m.func("main").unwrap();
        assert_eq!(f.loop_hints.len(), 1);
        assert_eq!(f.loop_hints[0].1, 8);
    }

    #[test]
    fn access_hints_generated() {
        let m = gen("int tab[4]; void main() { int i; i = 0; tab[i] = tab[i] + tab[2]; }");
        let f = m.func("main").unwrap();
        // One range load, one exact load (tab[2]), one range store.
        let exact = f
            .access_hints
            .iter()
            .filter(|(_, h)| {
                matches!(
                    h,
                    AccessHint::Global {
                        exact_offset: Some(_),
                        ..
                    }
                )
            })
            .count();
        let range = f
            .access_hints
            .iter()
            .filter(|(_, h)| {
                matches!(
                    h,
                    AccessHint::Global {
                        exact_offset: None,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(exact, 1);
        assert_eq!(range, 2);
    }

    #[test]
    fn calls_emit_relocs() {
        let m = gen("int g(int x) { return x; } void main() { g(3); }");
        let main = m.func("main").unwrap();
        assert_eq!(main.call_relocs.len(), 1);
        assert_eq!(main.call_relocs[0].target, "g");
    }

    #[test]
    fn deep_expressions_spill() {
        // Parenthesised to force a deep right spine: depth > 6.
        let m = gen("int f(int a) { return a + (a + (a + (a + (a + (a + (a + (a + a))))))); }");
        assert!(m.func("f").is_some());
    }

    #[test]
    fn memory_objects_lists_functions_and_globals() {
        let m = gen("int x; void main() { x = 2; }");
        let objs = m.memory_objects();
        assert_eq!(objs.len(), 2);
        assert!(objs.iter().any(|(n, _)| n == "main"));
        assert!(objs.iter().any(|(n, s)| n == "x" && *s == 4));
    }
}
