//! Multi-level memory-hierarchy configuration and its cost model.
//!
//! This module is the *single source of truth* for how a memory access is
//! timed in a hierarchy: the simulator (`spmlab-sim`) and the static WCET
//! analyzer (`spmlab-wcet`) both call the cost helpers here, so they can
//! never disagree about the machine — a disagreement would break the
//! workspace's headline invariant (WCET bound ≥ simulated cycles).
//!
//! The model follows the two extensions the paper leaves as future work:
//!
//! * **Multi-level caches** (Hardy & Puaut, RTSS'08): an optional L1 —
//!   unified, or split into instruction and data halves — backed by an
//!   optional unified L2. Each level carries its own
//!   [`WritePolicy`](crate::cachecfg::WritePolicy): write-through /
//!   no-write-allocate (the paper's machine, the default) or write-back /
//!   write-allocate with eviction write-backs charged at the victim's next
//!   level — see the README's "Write policies and store buffers" section.
//! * **Parametric main memory** (Hassan, RTAS'18-style): the flat Table-1
//!   access constants generalise to [`MainMemoryTiming`] — a per-burst
//!   `latency` plus `beat_cycles` per `bus_bytes` transferred. The default
//!   parameters reproduce the paper's Table 1 exactly (2 cycles for 8/16-bit
//!   accesses, 4 for 32-bit, 17-cycle line fills for 16-byte lines).
//!
//! Timing of one read that reaches the main-memory region:
//!
//! | outcome                | cycles                                         |
//! |------------------------|------------------------------------------------|
//! | no cache in the path   | `main.access(width)`                           |
//! | L1 hit                 | `l1.hit_latency`                               |
//! | L1 miss, no L2         | `main.burst(l1.line) + 1`                      |
//! | L1 miss, L2 hit        | `l2.hit_latency + l1.line/4 + 1`               |
//! | L1 miss, L2 miss       | `main.burst(l2.line) + l2.hit_latency + l1.line/4 + 1` |
//!
//! (`+ 1` is the delivery cycle the single-level model already charged;
//! `l1.line/4` is the word-per-cycle refill of the L1 line out of on-chip
//! L2 SRAM.)
//!
//! Writes are routed by the per-level write policies: the first
//! write-back level in the data path *absorbs* the store (hit = dirty the
//! line in place; miss = write-allocate fill like a read miss), and a
//! dirty victim evicted from any level pays a full line write-back to the
//! *victim's* next level at eviction time. With no write-back level in
//! the path, stores go through to main memory exactly like the
//! single-level model — costing `main.access(width)`, or `1` cycle when a
//! [`StoreBuffer`] accepts them (worst case `1 + drain_cycles` when the
//! buffer is full). See [`MemHierarchyConfig::store_absorb`] and the
//! write-cost helpers below.

use crate::archspec::SpecError;
use crate::cachecfg::{CacheConfig, CacheScope};
use crate::mem::AccessWidth;
use serde::{Deserialize, Serialize};

/// A store buffer in front of main memory: core stores that would
/// otherwise pay the full main-memory write cost are accepted in one
/// cycle and drained in the background, one entry per `drain_cycles`.
/// When all `depth` entries are in flight the core stalls until the
/// oldest drains.
///
/// Timing contract (what makes the buffer analyzable): the per-store cost
/// is `1` cycle when a slot is free, and at most `1 + drain_cycles` when
/// the buffer is full — the oldest in-flight entry always completes
/// within `drain_cycles` of the stall's start, because every earlier
/// entry had already retired when it reached the drain port. The WCET
/// analyzer charges exactly this `1 + drain_cycles` worst case per
/// buffered store ([`MainMemoryTiming::store_cycles_worst`]).
///
/// The buffer holds **core stores only**: line write-backs of dirty
/// victims bypass it (they are burst transfers between memory levels, not
/// core traffic), and reads do not interact with it.
///
/// ```
/// use spmlab_isa::hierarchy::{MainMemoryTiming, StoreBuffer};
/// use spmlab_isa::mem::AccessWidth;
///
/// let main = MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 6));
/// // Worst case: buffer full, wait one full drain, then the 1-cycle accept.
/// assert_eq!(main.store_cycles_worst(AccessWidth::Word), 1 + 6);
/// // Without a buffer a word store pays the Table-1 main write cost.
/// assert_eq!(MainMemoryTiming::table1().store_cycles_worst(AccessWidth::Word), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreBuffer {
    /// Number of in-flight stores the buffer holds (≥ 1).
    pub depth: u32,
    /// Cycles to retire one entry to main memory (≥ 1).
    pub drain_cycles: u64,
}

impl StoreBuffer {
    /// A store buffer of `depth` entries draining one entry per
    /// `drain_cycles`.
    pub const fn new(depth: u32, drain_cycles: u64) -> StoreBuffer {
        StoreBuffer {
            depth,
            drain_cycles,
        }
    }
}

/// Parametric main-memory (DRAM) timing: each access or line fill is one
/// burst costing `latency + beats * beat_cycles`, where a beat moves
/// `bus_bytes` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MainMemoryTiming {
    /// Fixed cycles before the first beat of a burst (row activation, bus
    /// arbitration). 0 for the paper's zero-setup SRAM-style main memory.
    pub latency: u64,
    /// Cycles per bus beat.
    pub beat_cycles: u64,
    /// Bytes moved per beat (the paper's board: a 16-bit = 2-byte bus).
    pub bus_bytes: u32,
    /// Optional store buffer in front of main memory (`None` = the
    /// paper's machine: every store pays the full write cost in line).
    pub store_buffer: Option<StoreBuffer>,
}

impl MainMemoryTiming {
    /// The paper's Table-1 memory: 16-bit bus, 2 cycles per beat, no setup
    /// latency. `access` then yields 2/2/4 cycles for byte/half/word and
    /// `burst(16) + 1` the familiar 17-cycle line fill.
    pub const fn table1() -> MainMemoryTiming {
        MainMemoryTiming {
            latency: 0,
            beat_cycles: 2,
            bus_bytes: 2,
            store_buffer: None,
        }
    }

    /// DRAM-style timing: `latency` setup cycles per burst in front of the
    /// paper's 16-bit bus.
    pub const fn dram(latency: u64) -> MainMemoryTiming {
        MainMemoryTiming {
            latency,
            beat_cycles: 2,
            bus_bytes: 2,
            store_buffer: None,
        }
    }

    /// Adds a store buffer in front of this main memory.
    pub const fn with_store_buffer(mut self, sb: StoreBuffer) -> MainMemoryTiming {
        self.store_buffer = Some(sb);
        self
    }

    /// Number of beats to move `bytes` bytes (at least one).
    pub fn beats(&self, bytes: u32) -> u64 {
        (bytes.max(1) as u64).div_ceil(self.bus_bytes.max(1) as u64)
    }

    /// Cycles for one core-visible access of `width`.
    pub fn access(&self, width: AccessWidth) -> u64 {
        self.latency + self.beats(width.bytes()) * self.beat_cycles
    }

    /// Cycles for one burst of `bytes` bytes (a cache line fill).
    pub fn burst(&self, bytes: u32) -> u64 {
        self.latency + self.beats(bytes) * self.beat_cycles
    }

    /// Worst-case cycles for one core store that reaches main memory:
    /// the full write cost without a store buffer, or the 1-cycle accept
    /// plus one full drain when a [`StoreBuffer`] is configured (the
    /// buffer-full stall bound — see [`StoreBuffer`] for the argument).
    pub fn store_cycles_worst(&self, width: AccessWidth) -> u64 {
        match &self.store_buffer {
            None => self.access(width),
            Some(sb) => 1 + sb.drain_cycles,
        }
    }
}

impl Default for MainMemoryTiming {
    fn default() -> MainMemoryTiming {
        MainMemoryTiming::table1()
    }
}

/// First-level cache arrangement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum L1 {
    /// No first-level cache.
    None,
    /// One cache shared by fetches and data (the paper's configuration).
    /// Its [`CacheScope`] still applies: an `InstrOnly` unified cache
    /// serves fetches only, `DataOnly` serves data only.
    Unified(CacheConfig),
    /// Split Harvard-style L1: `i` serves instruction fetches, `d` serves
    /// data accesses; either half may be absent.
    Split {
        /// Instruction half.
        i: Option<CacheConfig>,
        /// Data half.
        d: Option<CacheConfig>,
    },
}

/// Which memory level absorbs a data store to main-memory space — the
/// first write-back level in the data path, or main memory itself when
/// every level in the path is write-through (the paper's machine). One
/// routing rule shared by the simulator's write path and the analyzer's
/// charging rule, so the two can never disagree about where store cost
/// accrues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAbsorb {
    /// The data-serving L1 is write-back: stores hit or write-allocate
    /// there.
    L1,
    /// No write-back L1, but the L2 is write-back: stores pass the (absent
    /// or write-through) L1 untouched and hit or write-allocate in the L2.
    L2,
    /// All-write-through path: stores go to main memory (via the store
    /// buffer when one is configured).
    Main,
}

/// A full memory-system configuration shared by the simulator and the WCET
/// analyzer: optional L1 (unified or split I/D), optional unified L2, and
/// parametric main-memory timing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemHierarchyConfig {
    /// First-level cache arrangement.
    pub l1: L1,
    /// Optional unified second-level cache. Only accesses that miss (or
    /// bypass nothing — see `l1_for`) in L1 reach it.
    pub l2: Option<CacheConfig>,
    /// Main-memory timing behind the last cache level.
    pub main: MainMemoryTiming,
}

impl MemHierarchyConfig {
    /// No caches, Table-1 main memory — the scratchpad branch of the paper.
    pub fn uncached() -> MemHierarchyConfig {
        MemHierarchyConfig {
            l1: L1::None,
            l2: None,
            main: MainMemoryTiming::table1(),
        }
    }

    /// No caches over custom main-memory timing.
    pub fn uncached_with(main: MainMemoryTiming) -> MemHierarchyConfig {
        MemHierarchyConfig {
            l1: L1::None,
            l2: None,
            main,
        }
    }

    /// A single L1 (the original single-level machine), honouring the
    /// cache's scope.
    pub fn l1_only(l1: CacheConfig) -> MemHierarchyConfig {
        MemHierarchyConfig {
            l1: L1::Unified(l1),
            l2: None,
            main: MainMemoryTiming::table1(),
        }
    }

    /// Split L1 I/D of the given sizes, no L2.
    pub fn split_l1(i_size: u32, d_size: u32) -> MemHierarchyConfig {
        MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(i_size)),
                d: Some(CacheConfig::data_only(d_size)),
            },
            l2: None,
            main: MainMemoryTiming::table1(),
        }
    }

    /// Adds a unified L2 behind the existing levels.
    pub fn with_l2(mut self, l2: CacheConfig) -> MemHierarchyConfig {
        self.l2 = Some(l2);
        self
    }

    /// Replaces the main-memory timing.
    pub fn with_main(mut self, main: MainMemoryTiming) -> MemHierarchyConfig {
        self.main = main;
        self
    }

    /// Whether any (enabled) cache level is present. Without one the
    /// hierarchy is pure region timing: every access is priced by its
    /// region, with main memory at `main`'s timing.
    pub fn has_cache_levels(&self) -> bool {
        fn on(c: &CacheConfig) -> bool {
            c.size > 0
        }
        let l1 = match &self.l1 {
            L1::None => false,
            L1::Unified(c) => on(c),
            L1::Split { i, d } => i.as_ref().is_some_and(on) || d.as_ref().is_some_and(on),
        };
        l1 || self.l2.as_ref().is_some_and(on)
    }

    /// The L1 cache that serves `fetch` (instruction) or data traffic, if
    /// any, honouring unified-cache scopes.
    pub fn l1_for(&self, fetch: bool) -> Option<&CacheConfig> {
        match &self.l1 {
            L1::None => None,
            L1::Unified(c) => match (c.scope, fetch) {
                (CacheScope::Unified, _) => Some(c),
                (CacheScope::InstrOnly, true) => Some(c),
                (CacheScope::DataOnly, false) => Some(c),
                _ => None,
            },
            L1::Split { i, d } => {
                if fetch {
                    i.as_ref()
                } else {
                    d.as_ref()
                }
            }
        }
    }

    /// Whether fetch and data traffic share one L1 tag store.
    pub fn l1_unified(&self) -> bool {
        matches!(&self.l1, L1::Unified(c) if c.scope == CacheScope::Unified)
    }

    /// Whether any cache sits in front of main memory for `fetch`/data.
    pub fn cached(&self, fetch: bool) -> bool {
        self.l1_for(fetch).is_some()
    }

    /// Cycles for an access of `width` that bypasses every cache level
    /// (no L1 *and* no L2 in its path, scratchpad/MMIO excluded upstream).
    pub fn bypass_cycles(&self, width: AccessWidth) -> u64 {
        self.main.access(width)
    }

    /// Cycles for an L1-less access that hits directly in the L2 (the
    /// routing for kinds without an L1: e.g. data traffic in an
    /// I-cache + L2 system). Such accesses *always* reach the L2, which is
    /// what lets the analysis update the L2 MUST state with certainty.
    pub fn l2_direct_hit_cycles(&self) -> u64 {
        self.l2
            .as_ref()
            .expect("direct-L2 cost needs an L2")
            .hit_cycles()
    }

    /// Cycles for an L1-less access that misses the L2: fill the L2 line
    /// from main memory, then serve from L2.
    pub fn l2_direct_miss_cycles(&self) -> u64 {
        let l2 = self.l2.as_ref().expect("direct-L2 cost needs an L2");
        self.main.burst(l2.line) + l2.hit_cycles()
    }

    /// Cycles when the access hits in its L1.
    pub fn l1_hit_cycles(&self, fetch: bool) -> u64 {
        self.l1_for(fetch)
            .map_or_else(|| self.main.access(AccessWidth::Word), |c| c.hit_cycles())
    }

    /// Total cycles when the access misses L1 and hits L2: L2 lookup plus a
    /// word-per-cycle refill of the L1 line and one delivery cycle.
    pub fn l1_miss_l2_hit_cycles(&self, fetch: bool) -> u64 {
        let l1 = self
            .l1_for(fetch)
            .expect("l2-hit cost needs an L1 in the path");
        let l2 = self.l2.as_ref().expect("l2-hit cost needs an L2");
        l2.hit_cycles() + (l1.line as u64) / 4 + 1
    }

    /// Total cycles when the access misses both L1 and L2: fill the L2 line
    /// from main memory, then refill L1 out of L2.
    pub fn l1_miss_l2_miss_cycles(&self, fetch: bool) -> u64 {
        let l2 = self.l2.as_ref().expect("l2-miss cost needs an L2");
        self.main.burst(l2.line) + self.l1_miss_l2_hit_cycles(fetch)
    }

    /// Total cycles when the access misses a last-level L1 (no L2): the
    /// original model's line fill plus delivery.
    pub fn l1_miss_no_l2_cycles(&self, fetch: bool) -> u64 {
        let l1 = self
            .l1_for(fetch)
            .expect("miss cost needs an L1 in the path");
        self.main.burst(l1.line) + 1
    }

    /// Worst-case cycles for one access that reaches main-memory space —
    /// what an analysis must charge when it can prove nothing. With an L1
    /// in the path this covers the hit outcome too: `hit_latency` is
    /// configurable and may exceed the fill cost.
    pub fn worst_read_cycles(&self, fetch: bool, width: AccessWidth) -> u64 {
        match (self.l1_for(fetch), &self.l2) {
            (None, None) => self.bypass_cycles(width),
            (None, Some(_)) => self.l2_direct_miss_cycles(),
            (Some(l1), None) => self.l1_miss_no_l2_cycles(fetch).max(l1.hit_cycles()),
            (Some(l1), Some(_)) => self.l1_miss_l2_miss_cycles(fetch).max(l1.hit_cycles()),
        }
    }

    // -----------------------------------------------------------------
    // The write path. One routing rule shared by the simulator and the
    // WCET analyzer: the first write-back level in the data path absorbs
    // the store; with no write-back level the store goes through to main
    // memory (optionally via the store buffer).
    // -----------------------------------------------------------------

    /// Where a data store to main-memory space lands (see
    /// [`StoreAbsorb`]). A write-back data-serving L1 absorbs first; a
    /// write-back L2 absorbs what passes the L1 (a write-through L1
    /// forwards every store untouched — no-allocate means its tag store
    /// never changes); otherwise the store goes through to main memory.
    pub fn store_absorb(&self) -> StoreAbsorb {
        if self
            .l1_for(false)
            .is_some_and(|c| c.write_policy.is_write_back())
        {
            StoreAbsorb::L1
        } else if self
            .l2
            .as_ref()
            .is_some_and(|c| c.write_policy.is_write_back())
        {
            StoreAbsorb::L2
        } else {
            StoreAbsorb::Main
        }
    }

    /// Whether a store can reach the store buffer: one is configured and
    /// no write-back level absorbs stores first
    /// ([`StoreAbsorb::Main`]). Behind an absorbing write-back level the
    /// buffer is idle — the simulator's write path and the analyzer's
    /// store charge both consult it only under `StoreAbsorb::Main` — so
    /// the machine times exactly like its unbuffered twin.
    pub fn buffers_stores(&self) -> bool {
        self.main.store_buffer.is_some() && self.store_absorb() == StoreAbsorb::Main
    }

    /// Whether any level is write-back or a store buffer is configured:
    /// the machines whose timing depends on the write policy. The
    /// pipeline reads it to route paper mode (a paper-mode machine
    /// writes through and has no store buffer), and `perfbench` to
    /// bucket its replay timings; trace pricing does not read it (see
    /// `spmlab_sim::trace`).
    pub fn write_policy_dependent(&self) -> bool {
        let wb = |c: &CacheConfig| c.size > 0 && c.write_policy.is_write_back();
        let l1 = match &self.l1 {
            L1::None => false,
            L1::Unified(c) => wb(c),
            L1::Split { i, d } => i.as_ref().is_some_and(wb) || d.as_ref().is_some_and(wb),
        };
        l1 || self.l2.as_ref().is_some_and(wb) || self.main.store_buffer.is_some()
    }

    /// Cycles to write one dirty line back from the data-serving L1 to
    /// its next level: into a write-back L2 at a word per cycle behind
    /// the L2 lookup, or as a main-memory burst when the L2 is
    /// write-through (which forwards the line) or absent.
    pub fn l1_writeback_cycles(&self) -> u64 {
        let l1 = self
            .l1_for(false)
            .expect("L1 write-back cost needs a data-serving L1");
        match &self.l2 {
            Some(l2) if l2.write_policy.is_write_back() => l2.hit_cycles() + (l1.line as u64) / 4,
            _ => self.main.burst(l1.line),
        }
    }

    /// Cycles to write one dirty L2 line back to main memory.
    pub fn l2_writeback_cycles(&self) -> u64 {
        let l2 = self.l2.as_ref().expect("L2 write-back cost needs an L2");
        self.main.burst(l2.line)
    }

    /// Worst-case cycles for one data store to main-memory space,
    /// **excluding** the write-back obligation (covered separately by
    /// [`MemHierarchyConfig::worst_store_writeback_cycles`]): the absorb
    /// level's worst of hit and write-allocate fill, or the
    /// (store-buffered) main write cost when nothing absorbs.
    pub fn worst_store_cycles(&self, width: AccessWidth) -> u64 {
        match self.store_absorb() {
            StoreAbsorb::L1 => {
                let l1 = self.l1_for(false).expect("absorb picked an L1");
                let fill = if self.l2.is_some() {
                    self.l1_miss_l2_miss_cycles(false)
                } else {
                    self.l1_miss_no_l2_cycles(false)
                };
                fill.max(l1.hit_cycles())
            }
            StoreAbsorb::L2 => self
                .l2_direct_miss_cycles()
                .max(self.l2_direct_hit_cycles()),
            StoreAbsorb::Main => self.main.store_cycles_worst(width),
        }
    }

    /// The write-back obligation a sound analysis charges per store whose
    /// target line is not provably dirty already: the eventual eviction
    /// of the line it dirties (one L1 write-back), plus — when that
    /// write-back lands in a write-back L2 — the eventual eviction of the
    /// L2 line *it* dirties (one L2 write-back). Zero on all-write-through
    /// paths. See `spmlab_wcet::dirty` for the full soundness argument.
    pub fn worst_store_writeback_cycles(&self) -> u64 {
        match self.store_absorb() {
            StoreAbsorb::L1 => {
                let l2_wb = self
                    .l2
                    .as_ref()
                    .is_some_and(|c| c.write_policy.is_write_back());
                self.l1_writeback_cycles() + if l2_wb { self.l2_writeback_cycles() } else { 0 }
            }
            StoreAbsorb::L2 => self.l2_writeback_cycles(),
            StoreAbsorb::Main => 0,
        }
    }

    /// The machine rules: every enabled level's geometry
    /// ([`CacheConfig::validate`]), the split-half and L2 scopes, the bus,
    /// the beat and the store buffer. Disabled (size-0) levels are
    /// skipped. [`MemArchSpec::validate`](crate::archspec::MemArchSpec::validate)
    /// applies them, and the simulator builds no machine they refuse.
    ///
    /// # Errors
    ///
    /// The first violated rule as a [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        match &self.l1 {
            L1::None => {}
            L1::Unified(c) if c.size == 0 => {}
            L1::Unified(c) => c.validate("l1")?,
            L1::Split { i, d } => {
                if let Some(c) = i.as_ref().filter(|c| c.size > 0) {
                    c.validate("l1i")?;
                    if c.scope == CacheScope::DataOnly {
                        return Err(SpecError::SplitScope(
                            "instruction half cannot be data-only",
                        ));
                    }
                }
                if let Some(c) = d.as_ref().filter(|c| c.size > 0) {
                    c.validate("l1d")?;
                    if c.scope == CacheScope::InstrOnly {
                        return Err(SpecError::SplitScope(
                            "data half cannot be instruction-only",
                        ));
                    }
                }
            }
        }
        if let Some(l2) = self.l2.as_ref().filter(|c| c.size > 0) {
            l2.validate("l2")?;
            if l2.scope != CacheScope::Unified {
                return Err(SpecError::L2Scope);
            }
        }
        if self.main.bus_bytes < 1 {
            return Err(SpecError::BadMain(
                "bus must move at least one byte per beat",
            ));
        }
        if self.main.beat_cycles < 1 {
            return Err(SpecError::BadMain("a beat takes at least one cycle"));
        }
        if let Some(sb) = &self.main.store_buffer {
            if sb.depth < 1 {
                return Err(SpecError::BadMain("store buffer needs at least one entry"));
            }
            if sb.drain_cycles < 1 {
                return Err(SpecError::BadMain(
                    "a store-buffer drain takes at least one cycle",
                ));
            }
        }
        Ok(())
    }

    /// Short human-readable label (`spm`, `l1 1024`, `l1i512+l1d512+l2 4096`,
    /// `l1 1024-wb`, `uncached (sb 4x6)`…) used by sweep reports.
    /// Write-through levels label exactly as before the write-policy axis
    /// existed; write-back levels append `-wb` and a store buffer appends
    /// `(sb depth×drain)`.
    pub fn label(&self) -> String {
        let wb = |c: &CacheConfig| {
            if c.write_policy.is_write_back() {
                "-wb"
            } else {
                ""
            }
        };
        let l1 = match &self.l1 {
            L1::None => String::from("uncached"),
            // Scope-restricted "unified" caches are different machines —
            // keep them distinguishable in reports and artifacts.
            L1::Unified(c) => match c.scope {
                CacheScope::Unified => format!("l1 {}{}", c.size, wb(c)),
                CacheScope::InstrOnly => format!("l1i {}", c.size),
                CacheScope::DataOnly => format!("l1d {}{}", c.size, wb(c)),
            },
            L1::Split { i, d } => match (i, d) {
                (Some(i), Some(d)) => format!("l1i{}+l1d{}{}", i.size, d.size, wb(d)),
                (Some(i), None) => format!("l1i{}", i.size),
                (None, Some(d)) => format!("l1d{}{}", d.size, wb(d)),
                (None, None) => String::from("uncached"),
            },
        };
        let l2 = match &self.l2 {
            Some(l2) => format!("+l2 {}{}", l2.size, wb(l2)),
            None => String::new(),
        };
        let timing_only = MainMemoryTiming {
            store_buffer: None,
            ..self.main
        };
        let mut main = if timing_only == MainMemoryTiming::table1() {
            String::new()
        } else {
            format!(
                " (dram {}+{}x{})",
                self.main.latency, self.main.beat_cycles, self.main.bus_bytes
            )
        };
        if let Some(sb) = &self.main.store_buffer {
            main.push_str(&format!(" (sb {}x{})", sb.depth, sb.drain_cycles));
        }
        format!("{l1}{l2}{main}")
    }
}

impl Default for MemHierarchyConfig {
    fn default() -> MemHierarchyConfig {
        MemHierarchyConfig::uncached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_timing_reproduced() {
        let t = MainMemoryTiming::table1();
        assert_eq!(t.access(AccessWidth::Byte), 2);
        assert_eq!(t.access(AccessWidth::Half), 2);
        assert_eq!(t.access(AccessWidth::Word), 4);
        assert_eq!(t.burst(16) + 1, 17, "the paper's line fill");
    }

    #[test]
    fn dram_timing_adds_latency() {
        let t = MainMemoryTiming::dram(10);
        assert_eq!(t.access(AccessWidth::Word), 14);
        assert_eq!(t.burst(32), 10 + 32);
    }

    #[test]
    fn single_level_compat_costs() {
        // The degenerate hierarchy must reproduce the original single-level
        // numbers exactly: 1-cycle hits, 17-cycle misses.
        let h = MemHierarchyConfig::l1_only(CacheConfig::unified(1024));
        assert_eq!(h.l1_hit_cycles(true), 1);
        assert_eq!(h.l1_miss_no_l2_cycles(true), 17);
        assert_eq!(h.worst_read_cycles(true, AccessWidth::Half), 17);
        assert!(h.has_cache_levels());
        let u = MemHierarchyConfig::uncached();
        assert!(!u.has_cache_levels());
        assert_eq!(u.bypass_cycles(AccessWidth::Word), 4);
        assert_eq!(u.worst_read_cycles(false, AccessWidth::Word), 4);
    }

    #[test]
    fn two_level_costs_are_ordered() {
        let h = MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096));
        h.validate().unwrap();
        let hit = h.l1_hit_cycles(true);
        let l2_hit = h.l1_miss_l2_hit_cycles(true);
        let l2_miss = h.l1_miss_l2_miss_cycles(true);
        assert!(hit < l2_hit && l2_hit < l2_miss);
        // l2 hit: 3 (latency) + 4 (16B line, word/cycle) + 1 (deliver) = 8.
        assert_eq!(l2_hit, 8);
        // l2 miss adds the 32-byte main burst: 32 + 8 = 40.
        assert_eq!(l2_miss, 40);
    }

    #[test]
    fn scope_routing() {
        let icache = MemHierarchyConfig::l1_only(CacheConfig::instr_only(512));
        assert!(icache.cached(true) && !icache.cached(false));
        let dcache = MemHierarchyConfig::l1_only(CacheConfig::data_only(512));
        assert!(!dcache.cached(true) && dcache.cached(false));
        let split = MemHierarchyConfig::split_l1(256, 512);
        assert_eq!(split.l1_for(true).unwrap().size, 256);
        assert_eq!(split.l1_for(false).unwrap().size, 512);
        assert!(!split.l1_unified());
        let uni = MemHierarchyConfig::l1_only(CacheConfig::unified(1024));
        assert!(uni.l1_unified());
    }

    #[test]
    fn store_absorb_routing() {
        // All write-through (the paper's machine): stores go to main.
        let wt = MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096));
        assert_eq!(wt.store_absorb(), StoreAbsorb::Main);
        assert!(!wt.write_policy_dependent());
        // A write-back L1D absorbs first.
        let mut wb_l1 = wt.clone();
        wb_l1.l1 = L1::Split {
            i: Some(CacheConfig::instr_only(512)),
            d: Some(CacheConfig::data_only(512).write_back()),
        };
        assert_eq!(wb_l1.store_absorb(), StoreAbsorb::L1);
        assert!(wb_l1.write_policy_dependent());
        // A write-through L1D in front of a write-back L2: the L2 absorbs.
        let wb_l2 =
            MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096).write_back());
        assert_eq!(wb_l2.store_absorb(), StoreAbsorb::L2);
        // An instruction-only L1 never absorbs data stores.
        let icache = MemHierarchyConfig::l1_only(CacheConfig::instr_only(512).write_back());
        assert_eq!(icache.store_absorb(), StoreAbsorb::Main);
        // A store buffer alone makes the machine write-policy-dependent.
        let sb = MemHierarchyConfig::uncached_with(
            MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 6)),
        );
        assert_eq!(sb.store_absorb(), StoreAbsorb::Main);
        assert!(sb.write_policy_dependent());
        assert!(!MemHierarchyConfig::uncached().write_policy_dependent());
    }

    #[test]
    fn buffers_stores_truth_table() {
        let sb = MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 8));
        let wb_l1d = MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(512)),
                d: Some(CacheConfig::data_only(512).write_back()),
            },
            l2: None,
            main: MainMemoryTiming::table1(),
        };
        let cases = [
            // All write-through: every store reaches main memory, so a
            // configured buffer takes it.
            (
                "all write-through",
                MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096)),
                true,
            ),
            ("uncached", MemHierarchyConfig::uncached(), true),
            // Write-back levels absorb every store before main memory.
            ("write-back L1D", wb_l1d.clone(), false),
            (
                "write-back L1D over a write-back L2",
                wb_l1d.with_l2(CacheConfig::l2(4096).write_back()),
                false,
            ),
            (
                "write-back L2 behind a write-through L1",
                MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096).write_back()),
                false,
            ),
            (
                "L1-less write-back L2",
                MemHierarchyConfig::uncached().with_l2(CacheConfig::l2(4096).write_back()),
                false,
            ),
            // An instruction-only L1 never sees a store.
            (
                "instruction-only write-back L1",
                MemHierarchyConfig::l1_only(CacheConfig::instr_only(512).write_back()),
                true,
            ),
        ];
        for (name, h, reaches_main) in cases {
            assert!(!h.buffers_stores(), "{name}: no buffer configured");
            assert_eq!(
                h.clone().with_main(sb).buffers_stores(),
                reaches_main,
                "{name}"
            );
            assert_eq!(
                h.store_absorb() == StoreAbsorb::Main,
                reaches_main,
                "{name}"
            );
        }
    }

    #[test]
    fn writeback_costs() {
        // WB L1D over a WB L2: victim line streams into the L2 at a word
        // per cycle behind the 3-cycle L2 lookup.
        let h = MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(512)),
                d: Some(CacheConfig::data_only(512).write_back()),
            },
            l2: Some(CacheConfig::l2(4096).write_back()),
            main: MainMemoryTiming::table1(),
        };
        h.validate().unwrap();
        assert_eq!(h.l1_writeback_cycles(), 3 + 16 / 4);
        // L2 victim: a 32-byte burst to Table-1 main memory.
        assert_eq!(h.l2_writeback_cycles(), 32);
        // Per-store obligation covers both eventual evictions.
        assert_eq!(h.worst_store_writeback_cycles(), 7 + 32);
        // The store's own worst case is the write-allocate fill path.
        assert_eq!(
            h.worst_store_cycles(AccessWidth::Word),
            h.l1_miss_l2_miss_cycles(false)
        );
        // WB L1 over a write-through L2: the forwarded line pays the main
        // burst (the WT L2 does not absorb lines).
        let wt_l2 = MemHierarchyConfig {
            l2: Some(CacheConfig::l2(4096)),
            ..h.clone()
        };
        assert_eq!(wt_l2.l1_writeback_cycles(), 16);
        assert_eq!(wt_l2.worst_store_writeback_cycles(), 16);
        // All-write-through machines owe nothing.
        assert_eq!(
            MemHierarchyConfig::split_l1(512, 512).worst_store_writeback_cycles(),
            0
        );
    }

    #[test]
    fn store_buffer_timing() {
        let sb = MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(2, 9));
        assert_eq!(sb.store_cycles_worst(AccessWidth::Byte), 10);
        let h = MemHierarchyConfig::uncached_with(sb);
        h.validate().unwrap();
        assert_eq!(h.worst_store_cycles(AccessWidth::Word), 10);
        assert_eq!(
            MemHierarchyConfig::uncached().worst_store_cycles(AccessWidth::Word),
            4
        );
    }

    #[test]
    fn labels() {
        assert_eq!(MemHierarchyConfig::uncached().label(), "uncached");
        assert_eq!(
            MemHierarchyConfig::split_l1(512, 512)
                .with_l2(CacheConfig::l2(4096))
                .label(),
            "l1i512+l1d512+l2 4096"
        );
        assert!(
            MemHierarchyConfig::uncached_with(MainMemoryTiming::dram(10))
                .label()
                .contains("dram 10")
        );
        // Write-back levels and store buffers are visible; write-through
        // labels are byte-identical to the pre-policy format.
        assert_eq!(
            MemHierarchyConfig::l1_only(CacheConfig::unified(1024).write_back()).label(),
            "l1 1024-wb"
        );
        let mut wb =
            MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096).write_back());
        wb.l1 = L1::Split {
            i: Some(CacheConfig::instr_only(512)),
            d: Some(CacheConfig::data_only(512).write_back()),
        };
        assert_eq!(wb.label(), "l1i512+l1d512-wb+l2 4096-wb");
        assert_eq!(
            MemHierarchyConfig::uncached_with(
                MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 6))
            )
            .label(),
            "uncached (sb 4x6)"
        );
    }
}
