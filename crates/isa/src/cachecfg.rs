//! Cache geometry and timing — shared between the simulator and the WCET
//! analyzer so both sides of the paper's comparison use the *same* machine
//! model (any mismatch would invalidate the WCET ≥ simulation invariant).

use crate::archspec::SpecError;
use serde::{Deserialize, Serialize};

/// Replacement policy for set-associative configurations (irrelevant for
/// direct-mapped caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Replacement {
    /// Least recently used — the policy WCET analysis likes best.
    Lru,
    /// Round-robin (FIFO) per set.
    RoundRobin,
    /// Pseudo-random (what real ARM7 cores ship); seeded for repeatability.
    Random {
        /// Seed for the xorshift generator.
        seed: u64,
    },
}

/// What traffic goes through the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheScope {
    /// Unified instruction + data cache (the paper's configuration).
    Unified,
    /// Instructions only; data bypasses to main memory (paper future work).
    InstrOnly,
    /// Data only; instruction fetches bypass (the L1D half of a split
    /// hierarchy, or a standalone D-cache ablation).
    DataOnly,
}

/// How a cache level handles stores — the policy axis this repository adds
/// on top of the paper's machine (which is [`WritePolicy::WriteThrough`]
/// at every level). See the README's "Write policies and store buffers"
/// section for the cost model, the analyzer's charging rule and measured
/// numbers.
///
/// ```
/// use spmlab_isa::cachecfg::{CacheConfig, WritePolicy};
///
/// // The paper's machine: every level write-through by construction.
/// assert_eq!(CacheConfig::unified(1024).write_policy, WritePolicy::WriteThrough);
/// // The write-back variant of the same geometry.
/// let wb = CacheConfig::unified(1024).write_back();
/// assert_eq!(wb.write_policy, WritePolicy::WriteBack);
/// assert_eq!(wb.size, 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WritePolicy {
    /// Write-through with **no write-allocate**: stores update main memory
    /// directly, never touch the tag store, and the cache holds no dirty
    /// state (the paper's machine, and this workspace's default). Memory
    /// is always current, so a tag-only model is exact.
    #[default]
    WriteThrough,
    /// Write-back with **write-allocate**: a store hit dirties the line in
    /// place, a store miss fills the line from the next level (like a read
    /// miss) and then dirties it, and an evicted dirty victim pays a full
    /// line write-back to the next level *at eviction time* — the
    /// unpredictable-write-instant trade the paper's predictability
    /// argument is about.
    WriteBack,
}

impl WritePolicy {
    /// The policy spelled `name`: `"wt"` or `"write-through"`, `"wb"` or
    /// `"write-back"` (spec JSON writes the long spellings, grid JSON the
    /// short ones); `None` for any other spelling.
    pub fn from_name(name: &str) -> Option<WritePolicy> {
        match name {
            "wt" | "write-through" => Some(WritePolicy::WriteThrough),
            "wb" | "write-back" => Some(WritePolicy::WriteBack),
            _ => None,
        }
    }

    /// Whether this level allocates on store misses and carries dirty
    /// lines.
    pub fn is_write_back(self) -> bool {
        self == WritePolicy::WriteBack
    }
}

/// Cache geometry and behaviour.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total size in bytes (power of two).
    pub size: u32,
    /// Line size in bytes (the paper: four 32-bit words = 16 bytes).
    pub line: u32,
    /// Associativity (1 = direct-mapped, the paper's configuration).
    pub assoc: u32,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Unified, instruction-only or data-only.
    pub scope: CacheScope,
    /// Cycles to serve a hit from this level (1 for an L1 next to the core;
    /// larger for an L2 further away).
    pub hit_latency: u32,
    /// How the level handles stores (write-through/no-allocate — the
    /// paper's machine — or write-back/write-allocate).
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// The paper's cache: unified, direct-mapped, 16-byte lines.
    pub fn unified(size: u32) -> CacheConfig {
        CacheConfig {
            size,
            line: 16,
            assoc: 1,
            replacement: Replacement::Lru,
            scope: CacheScope::Unified,
            hit_latency: 1,
            write_policy: WritePolicy::WriteThrough,
        }
    }

    /// The write-back/write-allocate variant of this geometry.
    pub fn write_back(mut self) -> CacheConfig {
        self.write_policy = WritePolicy::WriteBack;
        self
    }

    /// Instruction-only variant of the same geometry.
    pub fn instr_only(size: u32) -> CacheConfig {
        CacheConfig {
            scope: CacheScope::InstrOnly,
            ..CacheConfig::unified(size)
        }
    }

    /// Data-only variant of the same geometry.
    pub fn data_only(size: u32) -> CacheConfig {
        CacheConfig {
            scope: CacheScope::DataOnly,
            ..CacheConfig::unified(size)
        }
    }

    /// Set-associative unified cache with a replacement policy.
    pub fn set_assoc(size: u32, assoc: u32, replacement: Replacement) -> CacheConfig {
        CacheConfig {
            assoc,
            replacement,
            ..CacheConfig::unified(size)
        }
    }

    /// A typical unified second-level cache: 4-way LRU, 32-byte lines,
    /// 3-cycle hit latency (on-chip SRAM one level away from the core).
    pub fn l2(size: u32) -> CacheConfig {
        CacheConfig {
            size,
            line: 32,
            assoc: 4,
            replacement: Replacement::Lru,
            scope: CacheScope::Unified,
            hit_latency: 3,
            write_policy: WritePolicy::WriteThrough,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.size / self.line / self.assoc
    }

    /// The precomputed set/tag index math for this geometry.
    pub fn indexer(&self) -> SetIndexer {
        SetIndexer::new(self)
    }

    /// Cycles for a read hit served by this level.
    pub fn hit_cycles(&self) -> u64 {
        self.hit_latency as u64
    }

    /// The cache-geometry rules, stated once: hierarchies apply them to
    /// each enabled level, and the simulator's tag stores on construction
    /// (zero, a disabled level's size, is no power of two). `level` names
    /// the level in the error. A geometry they accept has a power-of-two
    /// set count, so [`SetIndexer`] needs no division.
    ///
    /// # Errors
    ///
    /// The first violated rule as [`SpecError::BadCache`].
    pub fn validate(&self, level: &'static str) -> Result<(), SpecError> {
        let err = |what| Err(SpecError::BadCache { level, what });
        if !self.size.is_power_of_two() {
            return err("cache size must be a power of two");
        }
        if !self.line.is_power_of_two() || self.line < 4 {
            return err("line size must be a power of two >= 4");
        }
        if self.line > self.size {
            return err("line size exceeds cache size");
        }
        if self.assoc < 1 || self.assoc > self.size / self.line {
            return err("bad associativity");
        }
        if !(self.size / self.line).is_multiple_of(self.assoc) {
            return err("sets must divide evenly");
        }
        if self.hit_latency < 1 {
            return err("hit latency must be at least one cycle");
        }
        Ok(())
    }
}

/// Precomputed address → (set, tag) math for one cache geometry — the
/// single definition shared by the simulator's tag stores and the WCET
/// analyzer's abstract caches, hoisted here so the two sides can never
/// disagree about line mapping.
///
/// A geometry [`CacheConfig::validate`] accepts has power-of-two line
/// sizes and set counts, so the line number and the tag are shifts and
/// the set index is a mask (zero for a single, fully associative set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetIndexer {
    line_shift: u32,
    /// `num_sets - 1`.
    set_mask: u32,
    /// `log2(num_sets)` (for the tag shift).
    set_shift: u32,
}

impl SetIndexer {
    /// Builds the indexer for `cfg`'s geometry.
    ///
    /// # Panics
    ///
    /// Panics when the set count is not a power of two, a geometry
    /// [`CacheConfig::validate`] refuses.
    pub fn new(cfg: &CacheConfig) -> SetIndexer {
        let num_sets = cfg.num_sets();
        assert!(
            num_sets.is_power_of_two(),
            "{num_sets} sets: the set count of a valid geometry is a power of two"
        );
        SetIndexer {
            line_shift: cfg.line.trailing_zeros(),
            set_mask: num_sets - 1,
            set_shift: num_sets.trailing_zeros(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.set_mask + 1
    }

    /// The line number of an address.
    pub fn line_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }

    /// The set a line number maps to.
    pub fn set_of_line(&self, line: u32) -> u32 {
        line & self.set_mask
    }

    /// The set index of an address.
    pub fn set_of(&self, addr: u32) -> u32 {
        self.set_of_line(addr >> self.line_shift)
    }

    /// The tag of an address.
    pub fn tag_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift) >> self.set_shift
    }

    /// Both halves at once (the hot-path entry point).
    pub fn set_and_tag(&self, addr: u32) -> (u32, u32) {
        let line = addr >> self.line_shift;
        (line & self.set_mask, line >> self.set_shift)
    }

    /// The base address of the line identified by `(set, tag)` — the
    /// inverse of [`SetIndexer::set_and_tag`], used to reconstruct the
    /// address of an evicted victim line (write-back caches report it for
    /// the write-back transfer).
    pub fn line_addr(&self, set: u32, tag: u32) -> u32 {
        ((tag << self.set_shift) | set) << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every geometry the cache check accepts, over sizes 64 B–64 KiB,
    /// lines 4–128 B and associativities from direct-mapped to fully
    /// associative (one set).
    fn arb_valid_geometry() -> impl Strategy<Value = CacheConfig> {
        (6u32..=16, 2u32..=7, 0u32..=14).prop_filter_map(
            "the cache check refuses it",
            |(size_exp, line_exp, assoc_exp)| {
                let cfg = CacheConfig {
                    line: 1 << line_exp,
                    assoc: 1 << assoc_exp,
                    ..CacheConfig::unified(1 << size_exp)
                };
                cfg.validate("l1").is_ok().then_some(cfg)
            },
        )
    }

    proptest! {
        /// The indexer's shift-and-mask math equals the division math on
        /// every accepted geometry, and `line_addr` inverts it.
        #[test]
        fn indexer_matches_division_math(
            cfg in arb_valid_geometry(),
            addrs in proptest::collection::vec(any::<u32>(), 1..32),
        ) {
            let sets = cfg.size / cfg.line / cfg.assoc;
            prop_assert!(sets.is_power_of_two(), "{cfg:?}");
            let ix = cfg.indexer();
            prop_assert_eq!(ix.num_sets(), sets);
            for addr in addrs {
                let line = addr / cfg.line;
                prop_assert_eq!(ix.line_of(addr), line);
                prop_assert_eq!(ix.set_of(addr), line % sets, "{:#x} {:?}", addr, cfg);
                prop_assert_eq!(ix.tag_of(addr), line / sets, "{:#x} {:?}", addr, cfg);
                let (s, t) = ix.set_and_tag(addr);
                prop_assert_eq!((s, t), (ix.set_of(addr), ix.tag_of(addr)));
                prop_assert_eq!(ix.line_addr(s, t), addr & !(cfg.line - 1), "round-trips");
            }
        }
    }

    #[test]
    fn geometry() {
        let cfg = CacheConfig::unified(8192);
        assert_eq!(cfg.num_sets(), 512);
        assert_eq!(cfg.hit_cycles(), 1);
        let cfg = CacheConfig::set_assoc(8192, 4, Replacement::Lru);
        assert_eq!(cfg.num_sets(), 128);
    }

    #[test]
    fn set_and_tag() {
        let ix = CacheConfig::unified(64).indexer(); // 4 sets × 16 B
        assert_eq!(ix.set_of(0x00), 0);
        assert_eq!(ix.set_of(0x10), 1);
        assert_eq!(ix.set_of(0x40), 0, "wraps");
        assert_ne!(ix.tag_of(0x00), ix.tag_of(0x40));
        assert_eq!(ix.tag_of(0x00), ix.tag_of(0x04), "same line same tag");
    }
}
