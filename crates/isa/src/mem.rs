//! Memory map and the paper's Table 1 access-timing model.
//!
//! The simulated board follows the paper's ATMEL AT91-style ARM7 evaluation
//! board: a small on-chip scratchpad mapped at the bottom of the address
//! space, a slower 16-bit-wide main memory holding code, literal pools, data
//! and the stack, and a memory-mapped console. Access times depend on the
//! *width* of the access exactly as in Table 1 of the paper:
//!
//! | Access width   | Main memory | Scratchpad |
//! |----------------|-------------|------------|
//! | Byte (8 bit)   | 2 cycles    | 1 cycle    |
//! | Half (16 bit)  | 2 cycles    | 1 cycle    |
//! | Word (32 bit)  | 4 cycles    | 1 cycle    |
//!
//! (cycles = access + waitstates; a 32-bit main-memory access needs three
//! waitstates because the bus is 16 bits wide).

use serde::{Deserialize, Serialize};

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AccessWidth {
    /// 8-bit access.
    Byte,
    /// 16-bit access (instruction fetches are always this width).
    Half,
    /// 32-bit access.
    Word,
}

impl AccessWidth {
    /// Size of the access in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            AccessWidth::Byte => 1,
            AccessWidth::Half => 2,
            AccessWidth::Word => 4,
        }
    }

    /// All widths, narrowest first.
    pub const ALL: [AccessWidth; 3] = [AccessWidth::Byte, AccessWidth::Half, AccessWidth::Word];
}

impl std::fmt::Display for AccessWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AccessWidth::Byte => "byte",
            AccessWidth::Half => "half",
            AccessWidth::Word => "word",
        };
        f.write_str(s)
    }
}

/// The kind of memory region an address falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegionKind {
    /// On-chip scratchpad (tightly coupled memory): single-cycle, any width.
    Scratchpad,
    /// External main memory behind a 16-bit bus with waitstates.
    Main,
    /// Memory-mapped I/O (console); single-cycle, uncached.
    Mmio,
    /// Unmapped address space.
    Unmapped,
}

impl std::fmt::Display for RegionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RegionKind::Scratchpad => "scratchpad",
            RegionKind::Main => "main",
            RegionKind::Mmio => "mmio",
            RegionKind::Unmapped => "unmapped",
        };
        f.write_str(s)
    }
}

/// Cycles for one access of `width` to a region of `kind`, per Table 1.
///
/// MMIO is modelled as single-cycle. Unmapped accesses are a simulator
/// error; for worst-case purposes they are costed like main memory.
///
/// Main-memory cost comes from the parametric
/// [`MainMemoryTiming`](crate::hierarchy::MainMemoryTiming) model with its
/// Table-1 default parameters; use [`access_cycles_with`] for systems with
/// different (e.g. DRAM) timing.
pub fn access_cycles(kind: RegionKind, width: AccessWidth) -> u64 {
    access_cycles_with(kind, width, &crate::hierarchy::MainMemoryTiming::table1())
}

/// [`access_cycles`] with explicit main-memory timing; scratchpad and MMIO
/// stay single-cycle regardless.
pub fn access_cycles_with(
    kind: RegionKind,
    width: AccessWidth,
    main: &crate::hierarchy::MainMemoryTiming,
) -> u64 {
    match kind {
        RegionKind::Scratchpad | RegionKind::Mmio => 1,
        RegionKind::Main | RegionKind::Unmapped => main.access(width),
    }
}

/// Default base address of the scratchpad region.
pub const SPM_BASE: u32 = 0x0000_0000;
/// Default base address of main memory.
pub const MAIN_BASE: u32 = 0x0010_0000;
/// Default size of main memory (1 MiB).
pub const MAIN_SIZE: u32 = 0x0010_0000;
/// Base address of the MMIO console region.
pub const MMIO_BASE: u32 = 0xFFFF_0000;
/// Size of the MMIO region.
pub const MMIO_SIZE: u32 = 0x100;

/// MMIO register: writing a word prints its low byte as a character.
pub const MMIO_PUTC: u32 = MMIO_BASE;
/// MMIO register: writing a word records it as a decimal integer output.
pub const MMIO_PUTINT: u32 = MMIO_BASE + 4;
/// MMIO register: reading returns the simulated cycle counter (low word).
pub const MMIO_CYCLES: u32 = MMIO_BASE + 8;

/// Address map of the simulated system.
///
/// ```
/// use spmlab_isa::mem::{MemoryMap, RegionKind, AccessWidth, access_cycles};
///
/// let map = MemoryMap::with_spm(1024);
/// assert_eq!(map.region_of(0x10), RegionKind::Scratchpad);
/// assert_eq!(map.region_of(0x0010_0000), RegionKind::Main);
/// assert_eq!(access_cycles(RegionKind::Main, AccessWidth::Word), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryMap {
    /// Scratchpad base address.
    pub spm_base: u32,
    /// Scratchpad size in bytes (0 = no scratchpad present).
    pub spm_size: u32,
    /// Main memory base address.
    pub main_base: u32,
    /// Main memory size in bytes.
    pub main_size: u32,
    /// Initial stack pointer (grows down from here inside main memory).
    pub stack_top: u32,
}

impl MemoryMap {
    /// A map with a scratchpad of `spm_size` bytes at the default bases.
    pub fn with_spm(spm_size: u32) -> MemoryMap {
        MemoryMap {
            spm_base: SPM_BASE,
            spm_size,
            main_base: MAIN_BASE,
            main_size: MAIN_SIZE,
            stack_top: MAIN_BASE + MAIN_SIZE,
        }
    }

    /// A map without any scratchpad (the cache-branch configuration of the
    /// paper, and the profiling baseline).
    pub fn no_spm() -> MemoryMap {
        MemoryMap::with_spm(0)
    }

    /// Classifies an address.
    pub fn region_of(&self, addr: u32) -> RegionKind {
        if self.spm_size > 0
            && addr >= self.spm_base
            && addr < self.spm_base.saturating_add(self.spm_size)
        {
            RegionKind::Scratchpad
        } else if addr >= self.main_base && addr < self.main_base.saturating_add(self.main_size) {
            RegionKind::Main
        } else if (MMIO_BASE..MMIO_BASE.saturating_add(MMIO_SIZE)).contains(&addr) {
            RegionKind::Mmio
        } else {
            RegionKind::Unmapped
        }
    }
}

impl Default for MemoryMap {
    fn default() -> MemoryMap {
        MemoryMap::no_spm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_cycles() {
        // The paper's Table 1, row by row.
        assert_eq!(access_cycles(RegionKind::Main, AccessWidth::Byte), 2);
        assert_eq!(access_cycles(RegionKind::Main, AccessWidth::Half), 2);
        assert_eq!(access_cycles(RegionKind::Main, AccessWidth::Word), 4);
        for w in AccessWidth::ALL {
            assert_eq!(access_cycles(RegionKind::Scratchpad, w), 1);
        }
    }

    #[test]
    fn region_classification() {
        let m = MemoryMap::with_spm(4096);
        assert_eq!(m.region_of(0), RegionKind::Scratchpad);
        assert_eq!(m.region_of(4095), RegionKind::Scratchpad);
        assert_eq!(m.region_of(4096), RegionKind::Unmapped);
        assert_eq!(m.region_of(MAIN_BASE), RegionKind::Main);
        assert_eq!(m.region_of(MAIN_BASE + MAIN_SIZE - 1), RegionKind::Main);
        assert_eq!(m.region_of(MAIN_BASE + MAIN_SIZE), RegionKind::Unmapped);
        assert_eq!(m.region_of(MMIO_PUTC), RegionKind::Mmio);
    }

    #[test]
    fn no_spm_means_unmapped_low_addresses() {
        let m = MemoryMap::no_spm();
        assert_eq!(m.region_of(0), RegionKind::Unmapped);
        assert_eq!(m.spm_size, 0);
    }

    #[test]
    fn stack_top_is_end_of_main() {
        let m = MemoryMap::with_spm(64);
        assert_eq!(m.stack_top, m.main_base + m.main_size);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(AccessWidth::Byte.bytes(), 1);
        assert_eq!(AccessWidth::Half.bytes(), 2);
        assert_eq!(AccessWidth::Word.bytes(), 4);
    }
}
