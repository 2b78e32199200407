//! # spmlab-sim — cycle-counting TH16 instruction-set simulator
//!
//! The stand-in for ARMulator in the paper's workflow: it executes linked
//! TH16 images with a cycle model that charges
//!
//! * 1 base cycle per instruction (+2 for taken branches, +3 for `MUL`,
//!   +11 for `SDIV`/`UDIV`),
//! * instruction-fetch and data-access cycles through the machine's one
//!   [`MemHierarchyConfig`] ([`MachineConfig`]): with no cache level,
//!   the paper's Table 1 (scratchpad 1 cycle, main memory 2 cycles for
//!   8/16-bit and 4 cycles for 32-bit accesses, or a parametric DRAM
//!   timing);
//! * otherwise its L1 (unified, instruction-only, data-only or split
//!   I/D) and optional unified L2 — direct-mapped or set-associative;
//!   LRU, round-robin or random replacement — e.g. a paper-style unified
//!   L1 with 1-cycle hits and 17-cycle misses (4 × 4-cycle line-fill
//!   reads + 1 delivery), each level write-through/no-write-allocate (the
//!   paper's machine) or write-back/write-allocate with dirty-victim
//!   write-backs, plus an optional store buffer in front of main memory
//!   (see [`spmlab_isa::cachecfg::WritePolicy`] and the README's "Write
//!   policies and store buffers" section).
//!
//! Beyond cycles it produces everything the rest of the toolchain needs:
//! per-symbol access profiles (the allocator's benefit function), raw
//! per-region access counts (the energy model), and per-instruction
//! hit/miss statistics (used to *test* the WCET cache analysis for
//! soundness).
//!
//! ```
//! use spmlab_cc::{compile, link, SpmAssignment};
//! use spmlab_isa::mem::MemoryMap;
//! use spmlab_sim::{simulate, MachineConfig, SimOptions};
//!
//! let m = compile("int x; void main() { x = 41 + 1; }")?;
//! let l = link(&m, &MemoryMap::no_spm(), &SpmAssignment::none())?;
//! let res = simulate(&l.exe, &MachineConfig::uncached(), &SimOptions::default())?;
//! assert_eq!(res.read_global(&l.exe, "x"), Some(42));
//! assert!(res.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod cpu;
pub mod hierarchy;
pub mod machine;
pub mod memsys;
pub mod profile;
pub mod trace;

#[cfg(test)]
#[path = "../../../tests/common/cycle_reader.rs"]
mod cycle_reader;

pub use cache::{AccessResult, CacheConfig, CacheScope, Replacement, WritePolicy};
pub use hierarchy::{HierarchyCaches, ReadOutcome};
pub use machine::{simulate, ExitReason, SimOptions, SimResult};
pub use memsys::{AccessKind, MemStats};
pub use profile::{InsnStat, Profile, SymbolProfile};
pub use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig};
pub use trace::{simulate_with_trace, MemTrace, Tallies, TraceError};

/// Machine configuration: the memory map comes from the executable; this
/// selects what sits between the core and main memory — one
/// [`MemHierarchyConfig`] (L1 I/D, unified L2, parametric main memory).
/// Scratchpad and MMIO accesses always bypass its caches; with no cache
/// level every access is priced by its region (Table 1 by default).
/// `Default` is the uncached Table-1 machine ([`MachineConfig::uncached`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineConfig {
    /// The memory system between the core and main memory.
    pub hierarchy: MemHierarchyConfig,
}

impl MachineConfig {
    /// No cache: pure Table-1 region timing (the scratchpad branch of the
    /// paper, for any scratchpad size including zero).
    pub fn uncached() -> MachineConfig {
        MachineConfig::default()
    }

    /// With a single cache of arbitrary geometry, routed by its scope.
    pub fn with_cache(cache: CacheConfig) -> MachineConfig {
        MachineConfig::with_hierarchy(MemHierarchyConfig::l1_only(cache))
    }

    /// With a full multi-level hierarchy.
    pub fn with_hierarchy(hierarchy: MemHierarchyConfig) -> MachineConfig {
        MachineConfig { hierarchy }
    }
}

/// Simulator errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Access to an unmapped address, or a misaligned access.
    Fault {
        pc: u32,
        addr: u32,
        what: &'static str,
    },
    /// An undefined instruction was executed.
    UndefinedInsn { pc: u32, raw: u16 },
    /// The watchdog cycle limit expired (runaway program), or a traced
    /// run left more than `u32::MAX` cycles between two main-memory
    /// events, longer than the trace's deltas hold.
    Watchdog { cycles: u64 },
    /// A trace replay observed a recorded MMIO cycle-register value that
    /// differs under the target hierarchy's timing — the trace is valid,
    /// just not for this machine; callers fall back to full simulation
    /// (see [`MemTrace`]).
    ReplayDivergence { recorded: u32, replayed: u32 },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Fault { pc, addr, what } => {
                write!(f, "memory fault at pc={pc:#x}: {what} access to {addr:#x}")
            }
            SimError::UndefinedInsn { pc, raw } => {
                write!(f, "undefined instruction {raw:#06x} at pc={pc:#x}")
            }
            SimError::Watchdog { cycles } => write!(f, "watchdog expired after {cycles} cycles"),
            SimError::ReplayDivergence { recorded, replayed } => write!(
                f,
                "trace replay diverged: cycle register recorded {recorded}, replayed {replayed}"
            ),
        }
    }
}

impl std::error::Error for SimError {}
