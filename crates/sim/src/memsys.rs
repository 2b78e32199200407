//! The memory system: region timing, the cache hierarchy, MMIO, statistics.
//!
//! Reads route through the per-kind cache hierarchy; writes route through
//! the per-level [`spmlab_isa::cachecfg::WritePolicy`] — absorbed by the
//! first write-back level in the data path, or written through to main
//! memory (optionally via a store buffer) on all-write-through machines,
//! exactly like the paper's. See [`crate::hierarchy::HierarchyCaches`]
//! and the README's "Write policies and store buffers" section for the
//! full write-traffic cost model.

use crate::hierarchy::{HierarchyCaches, ReadOutcome};
use crate::SimError;
use spmlab_isa::hierarchy::MemHierarchyConfig;
use spmlab_isa::mem::{
    access_cycles_with, AccessWidth, MemoryMap, RegionKind, MMIO_BASE, MMIO_CYCLES, MMIO_PUTC,
    MMIO_PUTINT, MMIO_SIZE,
};

/// What kind of access the core is making.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (always 16-bit).
    Fetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// Per-region, per-width access counters plus per-level cache statistics.
///
/// Counter semantics on write-back machines: `cache_hits`/`cache_misses`/
/// `l1i_*`/`l1d_*` cover **read and fetch lookups only** (the semantics
/// the classification soundness checks compare against), while
/// `l2_hits`/`l2_misses` count **L2 read lookups** — which include the
/// write-allocate *fills* an absorbed store miss performs, since those
/// read the L2 exactly like a read miss's fill. Store lookups at the
/// absorbing level itself are not hit/miss-counted; their footprint
/// shows up in `write_backs`/`dirty_evictions` (and `write_throughs` on
/// all-write-through paths).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Scratchpad accesses by width (byte, half, word).
    pub spm: [u64; 3],
    /// Main-memory accesses by width — *core-visible* accesses; line fills
    /// are counted separately.
    pub main: [u64; 3],
    /// MMIO accesses.
    pub mmio: u64,
    /// First-level read hits (fetch + data, every L1 arrangement).
    pub cache_hits: u64,
    /// First-level read misses (each consulting the next level).
    pub cache_misses: u64,
    /// 32-bit main-memory reads performed by line fills (from the level
    /// that actually talked to main memory).
    pub fill_words: u64,
    /// Writes that went through the cache path (write-through): stores
    /// to main-memory space with at least one cache level in the data
    /// path and **no** write-back level absorbing them.
    pub write_throughs: u64,
    /// Dirty lines written back to main memory (an evicted write-back L1
    /// victim with no write-back L2 behind it, or an evicted write-back
    /// L2 victim). Always 0 on all-write-through machines.
    pub write_backs: u64,
    /// Dirty victims evicted from **any** cache level (an L1 victim
    /// absorbed by a write-back L2 counts here but not in `write_backs`).
    pub dirty_evictions: u64,
    /// Cycles the core stalled because the store buffer was full.
    pub store_buffer_stalls: u64,
    /// Instruction-fetch hits in the L1 serving fetches.
    pub l1i_hits: u64,
    /// Instruction-fetch misses in the L1 serving fetches.
    pub l1i_misses: u64,
    /// Data-read hits in the L1 serving data.
    pub l1d_hits: u64,
    /// Data-read misses in the L1 serving data.
    pub l1d_misses: u64,
    /// Read hits in the unified L2.
    pub l2_hits: u64,
    /// Read misses in the unified L2.
    pub l2_misses: u64,
}

impl MemStats {
    fn bump(&mut self, kind: RegionKind, width: AccessWidth) {
        let idx = match width {
            AccessWidth::Byte => 0,
            AccessWidth::Half => 1,
            AccessWidth::Word => 2,
        };
        match kind {
            RegionKind::Scratchpad => self.spm[idx] += 1,
            RegionKind::Main | RegionKind::Unmapped => self.main[idx] += 1,
            RegionKind::Mmio => self.mmio += 1,
        }
    }
}

/// The full memory system backing the simulation loop in `machine`.
#[derive(Debug, Clone)]
pub struct MemSystem {
    map: MemoryMap,
    spm: Vec<u8>,
    main: Vec<u8>,
    caches: HierarchyCaches,
    /// Console bytes written via MMIO/SWI.
    pub console: Vec<u8>,
    /// Integers written via MMIO/SWI.
    pub int_outputs: Vec<i32>,
    /// Statistics.
    pub stats: MemStats,
    /// Cycle counter mirror (for the MMIO cycle register).
    pub now: u64,
    /// Trace recorder for [`crate::trace::simulate_with_trace`] runs.
    pub(crate) recorder: Option<crate::trace::TraceRecorder>,
}

impl MemSystem {
    /// Builds the memory system and pre-loads the executable's regions
    /// (including scratchpad contents — static allocation is load-time).
    pub fn new(exe: &spmlab_isa::image::Executable, levels: MemHierarchyConfig) -> MemSystem {
        let map = exe.memory_map.clone();
        let mut sys = MemSystem {
            spm: vec![0; map.spm_size as usize],
            main: vec![0; map.main_size as usize],
            caches: HierarchyCaches::new(levels),
            console: Vec::new(),
            int_outputs: Vec::new(),
            stats: MemStats::default(),
            now: 0,
            recorder: None,
            map,
        };
        for r in &exe.regions {
            for (i, b) in r.bytes.iter().enumerate() {
                let addr = r.addr + i as u32;
                match sys.map.region_of(addr) {
                    RegionKind::Scratchpad => {
                        sys.spm[(addr - sys.map.spm_base) as usize] = *b;
                    }
                    RegionKind::Main => {
                        sys.main[(addr - sys.map.main_base) as usize] = *b;
                    }
                    _ => {}
                }
            }
        }
        sys
    }

    /// The memory map.
    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    fn backing(&self, addr: u32, len: u32) -> Option<(&[u8], usize)> {
        match self.map.region_of(addr) {
            RegionKind::Scratchpad => {
                let off = (addr - self.map.spm_base) as usize;
                (off + len as usize <= self.spm.len()).then_some((&self.spm[..], off))
            }
            RegionKind::Main => {
                let off = (addr - self.map.main_base) as usize;
                (off + len as usize <= self.main.len()).then_some((&self.main[..], off))
            }
            _ => None,
        }
    }

    /// Raw read without timing or stats (debugger-style; used to extract
    /// results after a run).
    pub fn peek(&self, addr: u32, width: AccessWidth) -> Option<u32> {
        let (buf, off) = self.backing(addr, width.bytes())?;
        Self::load(buf, off, width)
    }

    /// Little-endian load out of a backing buffer (bounds-checked).
    fn load(buf: &[u8], off: usize, width: AccessWidth) -> Option<u32> {
        if off + width.bytes() as usize > buf.len() {
            return None;
        }
        Some(match width {
            AccessWidth::Byte => buf[off] as u32,
            AccessWidth::Half => u16::from_le_bytes([buf[off], buf[off + 1]]) as u32,
            AccessWidth::Word => {
                u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
            }
        })
    }

    fn poke(&mut self, addr: u32, width: AccessWidth, value: u32) -> bool {
        let region = self.map.region_of(addr);
        let (buf, off): (&mut Vec<u8>, usize) = match region {
            RegionKind::Scratchpad => (&mut self.spm, (addr - self.map.spm_base) as usize),
            RegionKind::Main => (&mut self.main, (addr - self.map.main_base) as usize),
            _ => return false,
        };
        let bytes = value.to_le_bytes();
        let n = width.bytes() as usize;
        if off + n > buf.len() {
            return false;
        }
        buf[off..off + n].copy_from_slice(&bytes[..n]);
        true
    }

    /// The cache hierarchy (tests and diagnostics).
    pub fn caches(&self) -> &HierarchyCaches {
        &self.caches
    }

    /// Performs a read or fetch. Returns `(value, cycles, outcome)`;
    /// [`ReadOutcome`] reports the per-level result (`BYPASS` when the
    /// access bypassed the caches entirely — scratchpad, MMIO, or no cache
    /// configured for its kind).
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    pub fn read(
        &mut self,
        pc: u32,
        addr: u32,
        width: AccessWidth,
        kind: AccessKind,
    ) -> Result<(u32, u64, ReadOutcome), SimError> {
        if !addr.is_multiple_of(width.bytes()) {
            return Err(SimError::Fault {
                pc,
                addr,
                what: "misaligned",
            });
        }
        // One region classification per access: the value load and the
        // timing route both reuse it (the old path re-derived the region
        // inside `peek`).
        let region = self.map.region_of(addr);
        self.stats.bump(region, width);
        match region {
            RegionKind::Mmio => {
                let v = match addr {
                    MMIO_CYCLES => {
                        let v = self.now as u32;
                        if let Some(r) = &mut self.recorder {
                            // Timing-dependent value: recorded so replay
                            // can validate it under the target timing.
                            r.record_cycle_read(v);
                        }
                        v
                    }
                    _ => 0,
                };
                Ok((v, 1, ReadOutcome::BYPASS))
            }
            RegionKind::Main => {
                let off = (addr - self.map.main_base) as usize;
                let value = Self::load(&self.main, off, width).ok_or(SimError::Fault {
                    pc,
                    addr,
                    what: "unmapped read",
                })?;
                let (cycles, outcome) = self.caches.read(addr, kind, width, &mut self.stats);
                if let Some(r) = &mut self.recorder {
                    r.record_read(addr, kind, width, cycles);
                }
                Ok((value, cycles, outcome))
            }
            RegionKind::Scratchpad => {
                // Scratchpad: single-cycle, never cached.
                let off = (addr - self.map.spm_base) as usize;
                let value = Self::load(&self.spm, off, width).ok_or(SimError::Fault {
                    pc,
                    addr,
                    what: "unmapped read",
                })?;
                Ok((value, 1, ReadOutcome::BYPASS))
            }
            RegionKind::Unmapped => Err(SimError::Fault {
                pc,
                addr,
                what: "unmapped read",
            }),
        }
    }

    /// Timing/statistics-only instruction fetch of one halfword whose
    /// value is already known (predecoded-instruction replay): identical
    /// cycle charging and counters to [`MemSystem::read`], minus the value
    /// load. Only called for addresses proven mapped when the instruction
    /// was first decoded.
    pub fn fetch_timing(&mut self, addr: u32) -> (u64, ReadOutcome) {
        let region = self.map.region_of(addr);
        self.stats.bump(region, AccessWidth::Half);
        if region == RegionKind::Main {
            let (cycles, outcome) =
                self.caches
                    .read(addr, AccessKind::Fetch, AccessWidth::Half, &mut self.stats);
            if let Some(r) = &mut self.recorder {
                r.record_read(addr, AccessKind::Fetch, AccessWidth::Half, cycles);
            }
            (cycles, outcome)
        } else {
            // Scratchpad-resident code: single-cycle, never cached. (MMIO
            // is never predecoded — load regions cover main/spm only.)
            (1, ReadOutcome::BYPASS)
        }
    }

    /// Performs a write. Returns cycles.
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    pub fn write(
        &mut self,
        pc: u32,
        addr: u32,
        width: AccessWidth,
        value: u32,
    ) -> Result<u64, SimError> {
        if !addr.is_multiple_of(width.bytes()) {
            return Err(SimError::Fault {
                pc,
                addr,
                what: "misaligned",
            });
        }
        let region = self.map.region_of(addr);
        self.stats.bump(region, width);
        if region == RegionKind::Mmio {
            match addr {
                MMIO_PUTC => self.console.push(value as u8),
                MMIO_PUTINT => self.int_outputs.push(value as i32),
                a if (MMIO_BASE..MMIO_BASE + MMIO_SIZE).contains(&a) => {}
                _ => unreachable!("region_of said Mmio"),
            }
            return Ok(1);
        }
        if !self.poke(addr, width, value) {
            return Err(SimError::Fault {
                pc,
                addr,
                what: "unmapped write",
            });
        }
        if region == RegionKind::Main {
            // The write path is policy-routed (see `HierarchyCaches::write`):
            // absorbed by the first write-back level, or written through to
            // main memory (via the store buffer when one is configured).
            // The backing store was already updated above, so write-back is
            // purely a timing model over always-current memory.
            let now = self.now;
            let cycles = self.caches.write(addr, width, now, &mut self.stats);
            if let Some(r) = &mut self.recorder {
                r.record_write(addr, width, cycles);
            }
            return Ok(cycles);
        }
        // Scratchpad (single-cycle) and MMIO writes bypass the hierarchy.
        Ok(access_cycles_with(
            region,
            width,
            &self.caches.config().main,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use spmlab_isa::image::{Executable, LoadRegion};
    use spmlab_isa::mem::MAIN_BASE;

    fn exe_with(map: MemoryMap, addr: u32, bytes: Vec<u8>) -> Executable {
        Executable {
            regions: vec![LoadRegion { addr, bytes }],
            symbols: vec![],
            entry: MAIN_BASE,
            memory_map: map,
        }
    }

    #[test]
    fn uncached_timing_follows_table1() {
        let exe = exe_with(MemoryMap::with_spm(64), MAIN_BASE, vec![1, 2, 3, 4]);
        let mut m = MemSystem::new(&exe, MemHierarchyConfig::uncached());
        let (v, cyc, miss) = m
            .read(0, MAIN_BASE, AccessWidth::Word, AccessKind::Read)
            .unwrap();
        assert_eq!(v, 0x04030201);
        assert_eq!(cyc, 4);
        assert_eq!(miss, ReadOutcome::BYPASS);
        let (_, cyc, _) = m
            .read(0, MAIN_BASE, AccessWidth::Half, AccessKind::Fetch)
            .unwrap();
        assert_eq!(cyc, 2);
        let (_, cyc, _) = m.read(0, 0, AccessWidth::Word, AccessKind::Read).unwrap();
        assert_eq!(cyc, 1, "scratchpad word read is single cycle");
    }

    #[test]
    fn cached_fetch_miss_then_hit() {
        let exe = exe_with(MemoryMap::no_spm(), MAIN_BASE, vec![0; 64]);
        let mut m = MemSystem::new(&exe, MemHierarchyConfig::l1_only(CacheConfig::unified(64)));
        let (_, cyc, miss) = m
            .read(0, MAIN_BASE, AccessWidth::Half, AccessKind::Fetch)
            .unwrap();
        assert_eq!((cyc, miss.first_miss), (17, Some(true)));
        let (_, cyc, miss) = m
            .read(0, MAIN_BASE + 2, AccessWidth::Half, AccessKind::Fetch)
            .unwrap();
        assert_eq!((cyc, miss.first_miss), (1, Some(false)), "same line hits");
        assert_eq!(m.stats.cache_hits, 1);
        assert_eq!(m.stats.cache_misses, 1);
        assert_eq!(m.stats.fill_words, 4);
    }

    #[test]
    fn instr_only_cache_bypasses_data() {
        let exe = exe_with(MemoryMap::no_spm(), MAIN_BASE, vec![0; 64]);
        let mut m = MemSystem::new(
            &exe,
            MemHierarchyConfig::l1_only(CacheConfig::instr_only(64)),
        );
        let (_, cyc, miss) = m
            .read(0, MAIN_BASE, AccessWidth::Word, AccessKind::Read)
            .unwrap();
        assert_eq!((cyc, miss), (4, ReadOutcome::BYPASS));
        let (_, cyc, _) = m
            .read(0, MAIN_BASE, AccessWidth::Half, AccessKind::Fetch)
            .unwrap();
        assert_eq!(cyc, 17, "fetches still cached");
    }

    #[test]
    fn writes_are_write_through() {
        let exe = exe_with(MemoryMap::no_spm(), MAIN_BASE, vec![0; 64]);
        let mut m = MemSystem::new(&exe, MemHierarchyConfig::l1_only(CacheConfig::unified(64)));
        let cyc = m
            .write(0, MAIN_BASE + 8, AccessWidth::Word, 0xAABBCCDD)
            .unwrap();
        assert_eq!(cyc, 4, "write pays main-memory cost");
        assert_eq!(m.peek(MAIN_BASE + 8, AccessWidth::Word), Some(0xAABBCCDD));
        // Read it back through the cache: first read misses (no allocate).
        let (v, cyc, miss) = m
            .read(0, MAIN_BASE + 8, AccessWidth::Word, AccessKind::Read)
            .unwrap();
        assert_eq!((v, cyc, miss.first_miss), (0xAABBCCDD, 17, Some(true)));
    }

    #[test]
    fn mmio_console() {
        let exe = exe_with(MemoryMap::no_spm(), MAIN_BASE, vec![]);
        let mut m = MemSystem::new(&exe, MemHierarchyConfig::uncached());
        m.write(0, MMIO_PUTC, AccessWidth::Word, b'h' as u32)
            .unwrap();
        m.write(0, MMIO_PUTC, AccessWidth::Word, b'i' as u32)
            .unwrap();
        m.write(0, MMIO_PUTINT, AccessWidth::Word, 42).unwrap();
        assert_eq!(m.console, b"hi");
        assert_eq!(m.int_outputs, vec![42]);
    }

    #[test]
    fn faults() {
        let exe = exe_with(MemoryMap::no_spm(), MAIN_BASE, vec![0; 8]);
        let mut m = MemSystem::new(&exe, MemHierarchyConfig::uncached());
        assert!(
            m.read(0, 0x50, AccessWidth::Word, AccessKind::Read)
                .is_err(),
            "unmapped"
        );
        assert!(
            m.read(0, MAIN_BASE + 2, AccessWidth::Word, AccessKind::Read)
                .is_err(),
            "align"
        );
        assert!(m.write(0, 0x50, AccessWidth::Word, 0).is_err());
    }

    #[test]
    fn spm_preloaded() {
        let map = MemoryMap::with_spm(64);
        let exe = exe_with(map, 0, vec![0xEF, 0xBE, 0xAD, 0xDE]);
        let m = MemSystem::new(&exe, MemHierarchyConfig::uncached());
        assert_eq!(m.peek(0, AccessWidth::Word), Some(0xDEADBEEF));
    }
}
