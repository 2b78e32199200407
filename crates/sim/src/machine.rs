//! The simulation loop.

use crate::cpu::{adc, asr_reg, lsl_reg, lsr_reg, ror_reg, sbc, sdiv, udiv, Cpu};
use crate::memsys::{AccessKind, MemStats, MemSystem};
use crate::profile::{InsnStat, InsnStats, Profile};
use crate::{MachineConfig, SimError};
use spmlab_isa::cond::Flags;
use spmlab_isa::decode::decode;
use spmlab_isa::image::Executable;
use spmlab_isa::insn::{AluOp, Insn, ShiftOp};
use spmlab_isa::mem::AccessWidth;

/// Why the simulation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The program executed `SWI 0`.
    Halted,
}

/// Simulation options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOptions {
    /// Abort after this many cycles (runaway protection).
    pub max_cycles: u64,
    /// Collect per-instruction statistics (small overhead; needed by the
    /// cache-analysis soundness tests).
    pub insn_stats: bool,
    /// Collect the per-symbol access profile (needed by the allocator).
    pub profile: bool,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            max_cycles: 2_000_000_000,
            insn_stats: true,
            profile: true,
        }
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total simulated cycles — the paper's "simulated execution time".
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Why execution stopped.
    pub exit: ExitReason,
    /// Console output (SWI 1 / MMIO putc).
    pub console: String,
    /// Integer outputs (SWI 2 / MMIO putint).
    pub int_outputs: Vec<i32>,
    /// Memory-system statistics (energy accounting input).
    pub mem_stats: MemStats,
    /// Per-symbol access profile (allocator input).
    pub profile: Profile,
    /// Per-instruction dynamic statistics.
    pub insn_stats: InsnStats,
    memory: MemSystem,
}

impl SimResult {
    /// Reads a global's current (post-run) scalar value, sign-extended.
    pub fn read_global(&self, exe: &Executable, name: &str) -> Option<i32> {
        self.read_global_at(exe, name, 0)
    }

    /// Reads element `index` of a global array after the run.
    pub fn read_global_at(&self, exe: &Executable, name: &str, index: u32) -> Option<i32> {
        let sym = exe.symbol(name)?;
        let width = match sym.kind {
            spmlab_isa::image::SymbolKind::Object { width } => width,
            _ => return None,
        };
        let raw = self.memory.peek(sym.addr + index * width.bytes(), width)?;
        Some(match width {
            AccessWidth::Byte => raw as u8 as i8 as i32,
            AccessWidth::Half => raw as u16 as i16 as i32,
            AccessWidth::Word => raw as i32,
        })
    }

    /// Raw post-run memory read.
    pub fn peek(&self, addr: u32, width: AccessWidth) -> Option<u32> {
        self.memory.peek(addr, width)
    }
}

/// Runs `exe` to completion under `config`.
///
/// # Errors
///
/// Returns [`SimError`] for faults, undefined instructions, or watchdog
/// expiry.
pub fn simulate(
    exe: &Executable,
    config: &MachineConfig,
    options: &SimOptions,
) -> Result<SimResult, SimError> {
    let _span = spmlab_obs::span("simulate");
    let result = Machine::new(exe, config, options.clone()).run()?;
    spmlab_obs::counter("sim_instructions_total", result.instructions);
    Ok(result)
}

/// Runs `exe` on the uncached recording machine with the memory-trace
/// recorder armed; backs [`crate::trace::simulate_with_trace`].
///
/// # Errors
///
/// Any [`SimError`] of the underlying run.
pub(crate) fn simulate_recorded(
    exe: &Executable,
    options: &SimOptions,
) -> Result<(SimResult, crate::trace::TraceRecorder), SimError> {
    let _span = spmlab_obs::span("sim-record");
    let mut machine = Machine::new(exe, &MachineConfig::uncached(), options.clone());
    machine.mem.recorder = Some(crate::trace::TraceRecorder::default());
    let mut result = machine.run()?;
    let recorder = result
        .memory
        .recorder
        .take()
        .expect("recorder armed above and never dropped");
    Ok((result, recorder))
}

/// Lazily-filled predecoded instruction store, one bank per load region.
///
/// Decoding is pure, so each PC's instruction is decoded once and replayed
/// from here on every later visit — the fetch *timing* (cache lookups,
/// statistics) is still charged per halfword exactly as before. Writes
/// into a bank's range invalidate the covering slots, so self-modifying
/// stores can never replay stale instructions.
struct DecodeCache {
    banks: Vec<DecodeBank>,
}

struct DecodeBank {
    base: u32,
    /// One slot per halfword: `(instruction, size in bytes)`.
    slots: Vec<Option<(Insn, u8)>>,
}

impl DecodeCache {
    fn new(exe: &Executable) -> DecodeCache {
        DecodeCache {
            banks: exe
                .regions
                .iter()
                .map(|r| DecodeBank {
                    base: r.addr,
                    slots: vec![None; r.bytes.len().div_ceil(2)],
                })
                .collect(),
        }
    }

    fn slot_of(&self, pc: u32) -> Option<(usize, usize)> {
        for (b, bank) in self.banks.iter().enumerate() {
            if pc >= bank.base {
                let idx = ((pc - bank.base) / 2) as usize;
                if idx < bank.slots.len() {
                    return Some((b, idx));
                }
            }
        }
        None
    }

    fn get(&self, pc: u32) -> Option<(Insn, u32)> {
        let (b, i) = self.slot_of(pc)?;
        self.banks[b].slots[i].map(|(insn, size)| (insn, size as u32))
    }

    fn put(&mut self, pc: u32, insn: &Insn, size: u32) {
        if let Some((b, i)) = self.slot_of(pc) {
            self.banks[b].slots[i] = Some((*insn, size as u8));
        }
    }

    /// Drops every decoded slot whose instruction could overlap a write of
    /// `len` bytes at `addr` (a 4-byte instruction may start one halfword
    /// before the written range).
    fn invalidate(&mut self, addr: u32, len: u32) {
        let lo = addr.saturating_sub(2);
        for bank in &mut self.banks {
            let end = bank.base + bank.slots.len() as u32 * 2;
            if addr.saturating_add(len) <= bank.base || lo >= end {
                continue;
            }
            let first = (lo.max(bank.base) - bank.base) / 2;
            let last = ((addr + len - 1).min(end - 1) - bank.base) / 2;
            for i in first..=last {
                bank.slots[i as usize] = None;
            }
        }
    }
}

struct Machine {
    cpu: Cpu,
    mem: MemSystem,
    decoded: DecodeCache,
    cycles: u64,
    instructions: u64,
    options: SimOptions,
    /// Hoisted copies of the option flags the per-access path branches on.
    profile_on: bool,
    stats_on: bool,
    profile: Profile,
    insn_stats: InsnStats,
}

enum Outcome {
    Continue,
    Halt,
}

impl Machine {
    fn new(exe: &Executable, config: &MachineConfig, options: SimOptions) -> Machine {
        let mem = MemSystem::new(exe, config.hierarchy.clone());
        let cpu = Cpu {
            pc: exe.entry,
            sp: exe.memory_map.stack_top,
            // Returning here without SWI 0 is a fault.
            lr: 0xFFFF_FFFE,
            ..Cpu::default()
        };
        let profile = Profile::for_exe(exe);
        Machine {
            cpu,
            mem,
            decoded: DecodeCache::new(exe),
            cycles: 0,
            instructions: 0,
            profile_on: options.profile,
            stats_on: options.insn_stats,
            options,
            profile,
            insn_stats: InsnStats::new(),
        }
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        while let Outcome::Continue = self.step()? {
            if self.cycles > self.options.max_cycles {
                return Err(SimError::Watchdog {
                    cycles: self.cycles,
                });
            }
        }
        Ok(SimResult {
            cycles: self.cycles,
            instructions: self.instructions,
            exit: ExitReason::Halted,
            console: String::from_utf8_lossy(&self.mem.console).into_owned(),
            int_outputs: self.mem.int_outputs.clone(),
            mem_stats: self.mem.stats.clone(),
            profile: self.profile,
            insn_stats: self.insn_stats,
            memory: self.mem,
        })
    }

    /// Tells an armed trace recorder the cycle count the next access
    /// happens at (the inter-event deltas of the ordered v2 stream).
    #[inline]
    fn note_access_cycles(&mut self) {
        if let Some(r) = &mut self.mem.recorder {
            r.at(self.cycles);
        }
    }

    fn fetch(&mut self, pc: u32, insn_pc: u32) -> Result<u16, SimError> {
        self.note_access_cycles();
        let (v, cyc, outcome) = self
            .mem
            .read(pc, pc, AccessWidth::Half, AccessKind::Fetch)?;
        self.cycles += cyc;
        if self.profile_on {
            self.profile.record_fetch(pc);
        }
        if self.stats_on {
            self.record_fetch_outcome(insn_pc, outcome);
        }
        Ok(v as u16)
    }

    /// Fetch timing for a predecoded halfword (no value materialisation).
    fn fetch_timed(&mut self, pc: u32, insn_pc: u32) {
        self.note_access_cycles();
        let (cyc, outcome) = self.mem.fetch_timing(pc);
        self.cycles += cyc;
        if self.profile_on {
            self.profile.record_fetch(pc);
        }
        if self.stats_on {
            self.record_fetch_outcome(insn_pc, outcome);
        }
    }

    fn record_fetch_outcome(&mut self, insn_pc: u32, outcome: crate::hierarchy::ReadOutcome) {
        if outcome.first_miss.is_none() && outcome.l2_hit.is_none() {
            return; // Bypassed the caches: nothing to attribute.
        }
        let s = self.stat(insn_pc);
        match outcome.first_miss {
            Some(true) => s.fetch_misses += 1,
            Some(false) => s.fetch_hits += 1,
            None => {}
        }
        if outcome.l2_hit == Some(false) {
            s.fetch_l2_misses += 1;
        }
    }

    fn stat(&mut self, pc: u32) -> &mut InsnStat {
        self.insn_stats.entry(pc).or_default()
    }

    fn data_read(&mut self, insn_pc: u32, addr: u32, width: AccessWidth) -> Result<u32, SimError> {
        let evictions_before = self.mem.stats.dirty_evictions;
        self.note_access_cycles();
        let (v, cyc, outcome) = self.mem.read(insn_pc, addr, width, AccessKind::Read)?;
        self.cycles += cyc;
        if self.profile_on {
            self.profile.record_read(addr, width);
        }
        if self.stats_on {
            let evicted = self.mem.stats.dirty_evictions - evictions_before;
            let s = self.stat(insn_pc);
            s.data_accesses += 1;
            s.write_backs += evicted;
            match outcome.first_miss {
                Some(true) => s.data_misses += 1,
                Some(false) => s.data_hits += 1,
                None => {}
            }
            if outcome.l2_hit == Some(false) {
                s.data_l2_misses += 1;
            }
        }
        Ok(v)
    }

    fn data_write(
        &mut self,
        insn_pc: u32,
        addr: u32,
        width: AccessWidth,
        value: u32,
    ) -> Result<(), SimError> {
        let evictions_before = self.mem.stats.dirty_evictions;
        self.note_access_cycles();
        let cyc = self.mem.write(insn_pc, addr, width, value)?;
        self.decoded.invalidate(addr, width.bytes());
        self.cycles += cyc;
        if self.profile_on {
            self.profile.record_write(addr, width);
        }
        if self.stats_on {
            let evicted = self.mem.stats.dirty_evictions - evictions_before;
            let s = self.stat(insn_pc);
            s.data_accesses += 1;
            s.write_backs += evicted;
        }
        Ok(())
    }

    fn step(&mut self) -> Result<Outcome, SimError> {
        let pc = self.cpu.pc;
        if !pc.is_multiple_of(2) {
            return Err(SimError::Fault {
                pc,
                addr: pc,
                what: "misaligned fetch",
            });
        }
        self.mem.now = self.cycles;
        if let Some(r) = &mut self.mem.recorder {
            r.latch(self.cycles);
        }
        let (insn, size) = if let Some((insn, size)) = self.decoded.get(pc) {
            // Replay the predecoded instruction; the fetch timing and
            // statistics are still charged per halfword as always.
            self.fetch_timed(pc, pc);
            if size == 4 {
                self.fetch_timed(pc + 2, pc);
            }
            (insn, size)
        } else {
            let hw1 = self.fetch(pc, pc)?;
            // A BL hi halfword needs its partner (a second real fetch).
            let (insn, size) = if hw1 & 0xF800 == 0xF000 {
                let hw2 = self.fetch(pc + 2, pc)?;
                decode(hw1, Some(hw2))
            } else {
                decode(hw1, None)
            };
            self.decoded.put(pc, &insn, size);
            (insn, size)
        };
        if self.stats_on {
            self.stat(pc).execs += 1;
        }
        self.instructions += 1;
        self.cycles += 1; // Base cycle.
        let next = pc.wrapping_add(size);
        self.exec(&insn, pc, next)
    }

    fn set_nz(&mut self, v: u32) {
        self.cpu.flags = self.cpu.flags.from_logical(v);
    }

    fn exec(&mut self, insn: &Insn, pc: u32, next: u32) -> Result<Outcome, SimError> {
        use Insn::*;
        let pc_val = pc.wrapping_add(4);
        let mut branch_to: Option<u32> = None;
        match insn {
            ShiftImm { op, rd, rm, imm } => {
                let v = self.cpu.r(*rm);
                let res = match op {
                    ShiftOp::Lsl => {
                        if *imm == 0 {
                            v
                        } else {
                            v << imm
                        }
                    }
                    ShiftOp::Lsr => {
                        if *imm == 0 {
                            v
                        } else {
                            v >> imm
                        }
                    }
                    ShiftOp::Asr => {
                        if *imm == 0 {
                            v
                        } else {
                            ((v as i32) >> imm) as u32
                        }
                    }
                };
                self.cpu.set_r(*rd, res);
                self.set_nz(res);
            }
            AddReg { rd, rn, rm } => {
                let (res, f) = Flags::from_add(self.cpu.r(*rn), self.cpu.r(*rm));
                self.cpu.set_r(*rd, res);
                self.cpu.flags = f;
            }
            SubReg { rd, rn, rm } => {
                let (res, f) = Flags::from_sub(self.cpu.r(*rn), self.cpu.r(*rm));
                self.cpu.set_r(*rd, res);
                self.cpu.flags = f;
            }
            AddImm3 { rd, rn, imm } => {
                let (res, f) = Flags::from_add(self.cpu.r(*rn), *imm as u32);
                self.cpu.set_r(*rd, res);
                self.cpu.flags = f;
            }
            SubImm3 { rd, rn, imm } => {
                let (res, f) = Flags::from_sub(self.cpu.r(*rn), *imm as u32);
                self.cpu.set_r(*rd, res);
                self.cpu.flags = f;
            }
            MovImm { rd, imm } => {
                self.cpu.set_r(*rd, *imm as u32);
                self.set_nz(*imm as u32);
            }
            CmpImm { rd, imm } => {
                let (_, f) = Flags::from_sub(self.cpu.r(*rd), *imm as u32);
                self.cpu.flags = f;
            }
            AddImm { rd, imm } => {
                let (res, f) = Flags::from_add(self.cpu.r(*rd), *imm as u32);
                self.cpu.set_r(*rd, res);
                self.cpu.flags = f;
            }
            SubImm { rd, imm } => {
                let (res, f) = Flags::from_sub(self.cpu.r(*rd), *imm as u32);
                self.cpu.set_r(*rd, res);
                self.cpu.flags = f;
            }
            Alu { op, rd, rm } => self.exec_alu(*op, *rd, *rm),
            MovReg { rd, rm } => {
                let v = self.cpu.r(*rm);
                self.cpu.set_r(*rd, v);
                self.set_nz(v);
            }
            Sdiv { rd, rm } => {
                let res = sdiv(self.cpu.r(*rd), self.cpu.r(*rm));
                self.cpu.set_r(*rd, res);
                self.set_nz(res);
            }
            Udiv { rd, rm } => {
                let res = udiv(self.cpu.r(*rd), self.cpu.r(*rm));
                self.cpu.set_r(*rd, res);
                self.set_nz(res);
            }
            Ret => branch_to = Some(self.cpu.lr & !1),
            LdrLit { rd, imm } => {
                let addr = (pc_val & !3).wrapping_add(*imm as u32 * 4);
                let v = self.data_read(pc, addr, AccessWidth::Word)?;
                self.cpu.set_r(*rd, v);
            }
            LdrReg {
                width,
                signed,
                rd,
                rn,
                rm,
            } => {
                let addr = self.cpu.r(*rn).wrapping_add(self.cpu.r(*rm));
                let raw = self.data_read(pc, addr, *width)?;
                let v = if *signed {
                    match width {
                        AccessWidth::Byte => raw as u8 as i8 as i32 as u32,
                        AccessWidth::Half => raw as u16 as i16 as i32 as u32,
                        AccessWidth::Word => raw,
                    }
                } else {
                    raw
                };
                self.cpu.set_r(*rd, v);
            }
            StrReg { width, rd, rn, rm } => {
                let addr = self.cpu.r(*rn).wrapping_add(self.cpu.r(*rm));
                self.data_write(pc, addr, *width, self.cpu.r(*rd))?;
            }
            LdrImm { width, rd, rn, off } => {
                let addr = self.cpu.r(*rn).wrapping_add(*off as u32);
                let v = self.data_read(pc, addr, *width)?;
                self.cpu.set_r(*rd, v);
            }
            StrImm { width, rd, rn, off } => {
                let addr = self.cpu.r(*rn).wrapping_add(*off as u32);
                self.data_write(pc, addr, *width, self.cpu.r(*rd))?;
            }
            LdrSp { rd, imm } => {
                let addr = self.cpu.sp.wrapping_add(*imm as u32 * 4);
                let v = self.data_read(pc, addr, AccessWidth::Word)?;
                self.cpu.set_r(*rd, v);
            }
            StrSp { rd, imm } => {
                let addr = self.cpu.sp.wrapping_add(*imm as u32 * 4);
                self.data_write(pc, addr, AccessWidth::Word, self.cpu.r(*rd))?;
            }
            Adr { rd, imm } => {
                self.cpu
                    .set_r(*rd, (pc_val & !3).wrapping_add(*imm as u32 * 4));
            }
            AddSp { rd, imm } => {
                self.cpu
                    .set_r(*rd, self.cpu.sp.wrapping_add(*imm as u32 * 4));
            }
            AdjSp { delta } => {
                self.cpu.sp = self.cpu.sp.wrapping_add(*delta as i32 as u32);
            }
            Push { regs, lr } => {
                let n = regs.len() + *lr as u32;
                self.cpu.sp = self.cpu.sp.wrapping_sub(4 * n);
                let mut addr = self.cpu.sp;
                for r in regs.iter() {
                    self.data_write(pc, addr, AccessWidth::Word, self.cpu.r(r))?;
                    addr += 4;
                }
                if *lr {
                    self.data_write(pc, addr, AccessWidth::Word, self.cpu.lr)?;
                }
            }
            Pop { regs, pc: load_pc } => {
                let mut addr = self.cpu.sp;
                for r in regs.iter() {
                    let v = self.data_read(pc, addr, AccessWidth::Word)?;
                    self.cpu.set_r(r, v);
                    addr += 4;
                }
                if *load_pc {
                    let v = self.data_read(pc, addr, AccessWidth::Word)?;
                    branch_to = Some(v & !1);
                    addr += 4;
                }
                self.cpu.sp = addr;
            }
            Nop => {}
            BCond { cond, off } => {
                if cond.holds(self.cpu.flags) {
                    branch_to = Some(pc_val.wrapping_add(*off as u32));
                }
            }
            Swi { imm } => match imm {
                0 => {
                    self.cycles += insn.extra_cycles(false);
                    return Ok(Outcome::Halt);
                }
                1 => self.mem.console.push(self.cpu.r(spmlab_isa::reg::R0) as u8),
                2 => self
                    .mem
                    .int_outputs
                    .push(self.cpu.r(spmlab_isa::reg::R0) as i32),
                _ => {}
            },
            B { off } => branch_to = Some(pc_val.wrapping_add(*off as u32)),
            Bl { off } => {
                self.cpu.lr = pc.wrapping_add(4);
                branch_to = Some(pc_val.wrapping_add(*off as u32));
            }
            Undefined { raw } => return Err(SimError::UndefinedInsn { pc, raw: *raw }),
        }
        let taken = branch_to.is_some();
        self.cycles += insn.extra_cycles(taken);
        self.cpu.pc = branch_to.unwrap_or(next);
        if taken && self.cpu.pc == 0xFFFF_FFFE {
            return Err(SimError::Fault {
                pc,
                addr: self.cpu.pc,
                what: "return past _start",
            });
        }
        Ok(Outcome::Continue)
    }

    fn exec_alu(&mut self, op: AluOp, rd: spmlab_isa::reg::Reg, rm: spmlab_isa::reg::Reg) {
        let a = self.cpu.r(rd);
        let b = self.cpu.r(rm);
        match op {
            AluOp::And => {
                let v = a & b;
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
            AluOp::Eor => {
                let v = a ^ b;
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
            AluOp::Lsl => {
                let v = lsl_reg(a, b);
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
            AluOp::Lsr => {
                let v = lsr_reg(a, b);
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
            AluOp::Asr => {
                let v = asr_reg(a, b);
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
            AluOp::Adc => {
                let (v, f) = adc(a, b, self.cpu.flags.c);
                self.cpu.set_r(rd, v);
                self.cpu.flags = f;
            }
            AluOp::Sbc => {
                let (v, f) = sbc(a, b, self.cpu.flags.c);
                self.cpu.set_r(rd, v);
                self.cpu.flags = f;
            }
            AluOp::Ror => {
                let v = ror_reg(a, b);
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
            AluOp::Tst => self.set_nz(a & b),
            AluOp::Neg => {
                let (v, f) = Flags::from_sub(0, b);
                self.cpu.set_r(rd, v);
                self.cpu.flags = f;
            }
            AluOp::Cmp => {
                let (_, f) = Flags::from_sub(a, b);
                self.cpu.flags = f;
            }
            AluOp::Cmn => {
                let (_, f) = Flags::from_add(a, b);
                self.cpu.flags = f;
            }
            AluOp::Orr => {
                let v = a | b;
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
            AluOp::Mul => {
                let v = a.wrapping_mul(b);
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
            AluOp::Bic => {
                let v = a & !b;
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
            AluOp::Mvn => {
                let v = !b;
                self.cpu.set_r(rd, v);
                self.set_nz(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_cc::{compile, link, SpmAssignment};
    use spmlab_isa::mem::MemoryMap;

    fn run(src: &str) -> (SimResult, Executable) {
        let m = compile(src).expect("compile");
        let l = link(&m, &MemoryMap::no_spm(), &SpmAssignment::none()).expect("link");
        let r =
            simulate(&l.exe, &MachineConfig::uncached(), &SimOptions::default()).expect("simulate");
        (r, l.exe)
    }

    #[test]
    fn arithmetic_and_globals() {
        let (r, exe) = run("int x; int y; void main() { x = 6 * 7; y = x / 5; }");
        assert_eq!(r.read_global(&exe, "x"), Some(42));
        assert_eq!(r.read_global(&exe, "y"), Some(8));
    }

    #[test]
    fn loops_and_arrays() {
        let (r, exe) = run("int a[10]; int sum;
             void main() {
                 int i;
                 for (i = 0; i < 10; i = i + 1) { __loopbound(10); a[i] = i * i; }
                 sum = 0;
                 for (i = 0; i < 10; i = i + 1) { __loopbound(10); sum = sum + a[i]; }
             }");
        assert_eq!(r.read_global(&exe, "sum"), Some(285));
        assert_eq!(r.read_global_at(&exe, "a", 3), Some(9));
    }

    #[test]
    fn short_and_char_sign_extension() {
        let (r, exe) = run("short s[2]; char c[2]; int x; int y;
             void main() {
                 s[0] = -2; c[0] = -3;
                 x = s[0]; y = c[0];
             }");
        assert_eq!(r.read_global(&exe, "x"), Some(-2));
        assert_eq!(r.read_global(&exe, "y"), Some(-3));
    }

    #[test]
    fn calls_and_recursion_free_fib() {
        let (r, exe) = run("int fib;
             int fib_iter(int n) {
                 int a; int b; int t; int i;
                 a = 0; b = 1;
                 for (i = 0; i < n; i = i + 1) { __loopbound(20); t = a + b; a = b; b = t; }
                 return a;
             }
             void main() { fib = fib_iter(10); }");
        assert_eq!(r.read_global(&exe, "fib"), Some(55));
    }

    #[test]
    fn division_and_modulo() {
        let (r, exe) = run("int q; int m; int nq; int nm;
             void main() { q = 17 / 5; m = 17 % 5; nq = -17 / 5; nm = -17 % 5; }");
        assert_eq!(r.read_global(&exe, "q"), Some(3));
        assert_eq!(r.read_global(&exe, "m"), Some(2));
        assert_eq!(r.read_global(&exe, "nq"), Some(-3), "C truncation");
        assert_eq!(r.read_global(&exe, "nm"), Some(-2), "C remainder sign");
    }

    #[test]
    fn logical_operators_short_circuit() {
        let (r, exe) = run("int calls; int res;
             int bump() { calls = calls + 1; return 1; }
             void main() {
                 calls = 0;
                 res = (0 && bump()) + (1 || bump()) + (1 && bump());
             }");
        assert_eq!(r.read_global(&exe, "res"), Some(2));
        assert_eq!(
            r.read_global(&exe, "calls"),
            Some(1),
            "short-circuit skips bump twice"
        );
    }

    #[test]
    fn comparisons_and_bitwise() {
        let (r, exe) = run("int a; int b; int c; int d;
             void main() {
                 a = (3 < 5) + (5 <= 5) + (7 > 9) + (-1 < 0);
                 b = (6 & 3) + (6 | 3) + (6 ^ 3);
                 c = (1 << 10) + (-16 >> 2);
                 d = !5 + !0 + ~0;
             }");
        assert_eq!(r.read_global(&exe, "a"), Some(3));
        assert_eq!(r.read_global(&exe, "b"), Some(2 + 7 + 5));
        assert_eq!(r.read_global(&exe, "c"), Some(1024 - 4));
        assert_eq!(r.read_global(&exe, "d"), Some(0), "!5 + !0 + ~0");
    }

    #[test]
    fn while_and_do_while_and_break_continue() {
        let (r, exe) = run(
            "int x;
             void main() {
                 int i;
                 x = 0; i = 0;
                 while (1) { __loopbound(100); i = i + 1; if (i > 10) break; if (i % 2) continue; x = x + i; }
                 do { x = x + 100; i = i - 1; } while (i > 9);
             }",
        );
        // evens 2..10 sum = 30; then do-while runs twice (i 11→10→9).
        assert_eq!(r.read_global(&exe, "x"), Some(30 + 200));
    }

    #[test]
    fn deep_spill_expression() {
        let (r, exe) = run(
            "int x; int g(int a, int b, int c, int d) { return a + b * c - d; }
             void main() {
                 int a; a = 2;
                 x = a + (a + (a + (a + (a + (a + (a + (a + g(a, a, a, a))))))));
             }",
        );
        assert_eq!(r.read_global(&exe, "x"), Some(2 * 8 + (2 + 4 - 2)));
    }

    #[test]
    fn spm_placement_gives_same_result_faster() {
        let src = "int t[32]; int s;
             int work() {
                 int i; int acc;
                 acc = 0;
                 for (i = 0; i < 32; i = i + 1) { __loopbound(32); t[i] = i; }
                 for (i = 0; i < 32; i = i + 1) { __loopbound(32); acc = acc + t[i]; }
                 return acc;
             }
             void main() { s = work(); }";
        let m = compile(src).unwrap();
        let slow = link(&m, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
        let fast = link(
            &m,
            &MemoryMap::with_spm(1024),
            &SpmAssignment::of(["work", "t"]),
        )
        .unwrap();
        let rs = simulate(
            &slow.exe,
            &MachineConfig::uncached(),
            &SimOptions::default(),
        )
        .unwrap();
        let rf = simulate(
            &fast.exe,
            &MachineConfig::uncached(),
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(rs.read_global(&slow.exe, "s"), Some(496));
        assert_eq!(rf.read_global(&fast.exe, "s"), Some(496));
        assert!(
            rf.cycles < rs.cycles,
            "scratchpad must be faster: {} vs {}",
            rf.cycles,
            rs.cycles
        );
    }

    #[test]
    fn cache_improves_over_uncached_for_loops() {
        let src = "int s;
             void main() {
                 int i;
                 s = 0;
                 for (i = 0; i < 200; i = i + 1) { __loopbound(200); s = s + i; }
             }";
        let m = compile(src).unwrap();
        let l = link(&m, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
        let plain = simulate(&l.exe, &MachineConfig::uncached(), &SimOptions::default()).unwrap();
        let cached = simulate(
            &l.exe,
            &MachineConfig::with_cache(crate::CacheConfig::unified(1024)),
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(cached.read_global(&l.exe, "s"), Some(19900));
        assert!(
            cached.cycles < plain.cycles,
            "loop should hit in cache: {} vs {}",
            cached.cycles,
            plain.cycles
        );
        assert!(cached.mem_stats.cache_hits > cached.mem_stats.cache_misses);
    }

    #[test]
    fn profile_counts_hot_function() {
        let (r, _) = run(
            "int x;
             int hot(int n) { return n * 2; }
             void main() { int i; x = 0; for (i = 0; i < 50; i = i + 1) { __loopbound(50); x = x + hot(i); } }",
        );
        let hot = r.profile.symbol("hot").unwrap();
        let main = r.profile.symbol("main").unwrap();
        assert!(hot.fetches > 0);
        assert!(main.fetches > hot.fetches, "main body is bigger");
        let x = r.profile.symbol("x").unwrap();
        assert!(x.writes[2] >= 51);
    }

    #[test]
    fn console_output() {
        let (r, _) = run("void main() { }");
        assert_eq!(r.console, "");
        assert_eq!(r.exit, ExitReason::Halted);
    }

    #[test]
    fn watchdog_fires() {
        let m = compile("void main() { while (1) { __loopbound(1000000); } }").unwrap();
        let l = link(&m, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
        let opt = SimOptions {
            max_cycles: 10_000,
            ..SimOptions::default()
        };
        let err = simulate(&l.exe, &MachineConfig::uncached(), &opt).unwrap_err();
        assert!(matches!(err, SimError::Watchdog { .. }));
    }
}
