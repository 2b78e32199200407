//! Cache model: tag store plus per-line dirty bits.
//!
//! Under the default write-through / no-write-allocate policy the cache
//! needs tags only — main memory always holds current data, exactly like
//! the paper's machine. With [`WritePolicy::WriteBack`] the tag store
//! additionally carries one dirty bit per way: store hits dirty the line
//! in place, store misses write-allocate, and a fill that evicts a dirty
//! victim reports the victim's line address so the memory system can
//! charge the write-back at the victim's next level. The *data* path
//! stays trivially correct either way, because the simulator keeps the
//! backing store current on every store and models write-back purely as
//! timing (see the README's "Write policies and store buffers" section).
//! Geometry and timing come from [`spmlab_isa::cachecfg::CacheConfig`],
//! shared with the WCET analyzer.

use spmlab_isa::cachecfg::SetIndexer;
pub use spmlab_isa::cachecfg::{CacheConfig, CacheScope, Replacement, WritePolicy};

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u32,
    /// Higher = more recently used (LRU); insertion order (round-robin).
    stamp: u64,
}

/// The tag store. Ways are stored in one flat `assoc`-strided vector (set
/// `s` owns `ways[s*assoc .. (s+1)*assoc]`) so a lookup touches one
/// contiguous cache-friendly slice instead of chasing a per-set heap
/// allocation.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Precomputed set/tag math shared with the WCET analyzer's abstract
    /// caches (one definition of line mapping for both sides).
    idx: SetIndexer,
    assoc: usize,
    ways: Vec<Way>,
    tick: u64,
    rr_next: Vec<u32>,
    rng: u64,
}

/// Result of one cache access: whether the line was present, plus — when
/// a fill evicted a dirty victim — the victim line's base address (only
/// ever `Some` for write-back caches; write-through caches hold no dirty
/// state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Line was present.
    pub hit: bool,
    /// Base address of the dirty line this access evicted, if any.
    pub writeback: Option<u32>,
}

impl AccessResult {
    /// A plain hit (no eviction possible).
    pub const HIT: AccessResult = AccessResult {
        hit: true,
        writeback: None,
    };

    /// A miss whose fill evicted nothing dirty.
    pub const MISS: AccessResult = AccessResult {
        hit: false,
        writeback: None,
    };
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`CacheConfig::validate`] refuses, a size-0
    /// (disabled) level included.
    pub fn new(cfg: CacheConfig) -> Cache {
        cfg.validate("cache").expect("a valid cache geometry");
        let sets = cfg.num_sets();
        let rng_seed = match cfg.replacement {
            Replacement::Random { seed } => seed | 1,
            _ => 1,
        };
        Cache {
            ways: vec![Way::default(); (sets * cfg.assoc) as usize],
            assoc: cfg.assoc as usize,
            rr_next: vec![0; sets as usize],
            idx: cfg.indexer(),
            cfg,
            tick: 0,
            rng: rng_seed,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_and_tag(&self, addr: u32) -> (usize, u32) {
        let (set, tag) = self.idx.set_and_tag(addr);
        (set as usize, tag)
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The dirty victim's line address, if the way about to be replaced
    /// holds a modified line.
    fn victim_writeback(&self, set: usize, w: &Way) -> Option<u32> {
        (w.valid && w.dirty).then(|| self.idx.line_addr(set as u32, w.tag))
    }

    /// Fills `addr`'s line into its set, `dirty` flagged per the access
    /// kind, returning the evicted dirty victim's line address (if any).
    /// `stamp` is the recency value of the new line.
    fn fill(&mut self, set: usize, tag: u32, dirty: bool, stamp: u64) -> Option<u32> {
        let base = set * self.assoc;
        let ways = &self.ways[base..base + self.assoc];
        let victim = if let Some(inv) = ways.iter().position(|w| !w.valid) {
            inv
        } else {
            match self.cfg.replacement {
                Replacement::Lru => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.stamp)
                    .map(|(i, _)| i)
                    .unwrap_or(0),
                Replacement::RoundRobin => {
                    let v = self.rr_next[set] as usize;
                    self.rr_next[set] = (self.rr_next[set] + 1) % self.cfg.assoc;
                    v
                }
                Replacement::Random { .. } => {
                    let r = self.xorshift();
                    (r % self.cfg.assoc as u64) as usize
                }
            }
        };
        let wb = self.victim_writeback(set, &self.ways[base + victim]);
        self.ways[base + victim] = Way {
            valid: true,
            dirty,
            tag,
            stamp,
        };
        wb
    }

    /// A read access: returns hit/miss and fills the line (clean) on a
    /// miss, reporting a dirty victim's address for the write-back charge.
    #[inline]
    pub fn read(&mut self, addr: u32) -> AccessResult {
        self.access(addr, false)
    }

    /// A read or allocate-on-store access (`dirty` distinguishes them):
    /// the shared lookup-then-fill path.
    fn access(&mut self, addr: u32, dirty: bool) -> AccessResult {
        let (set, tag) = self.set_and_tag(addr);
        if self.assoc == 1 {
            // Direct-mapped fast path: no recency bookkeeping, no victim
            // search — the way either holds the tag or is replaced.
            let w = &mut self.ways[set];
            if w.valid && w.tag == tag {
                w.dirty |= dirty;
                return AccessResult::HIT;
            }
            let wb = (w.valid && w.dirty).then(|| self.idx.line_addr(set as u32, w.tag));
            *w = Way {
                valid: true,
                dirty,
                tag,
                stamp: 0,
            };
            return AccessResult {
                hit: false,
                writeback: wb,
            };
        }
        self.tick += 1;
        let tick = self.tick;
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.stamp = tick; // LRU touch (harmless for other policies).
            w.dirty |= dirty;
            return AccessResult::HIT;
        }
        // Miss: pick a victim way and fill.
        let wb = self.fill(set, tag, dirty, tick);
        AccessResult {
            hit: false,
            writeback: wb,
        }
    }

    fn set_ways(&self, set: usize) -> &[Way] {
        &self.ways[set * self.assoc..(set + 1) * self.assoc]
    }

    /// A data store, routed by the level's [`WritePolicy`]:
    ///
    /// * **write-through / no-allocate** (the paper's machine): the tag
    ///   store is untouched — no allocation, no recency update, no dirty
    ///   state — and only the hit/miss outcome is reported;
    /// * **write-back / write-allocate**: a hit dirties the line in place
    ///   (with a recency touch, like a read); a miss write-allocates the
    ///   line dirty, possibly evicting a dirty victim whose address is
    ///   reported for the write-back charge.
    pub fn write(&mut self, addr: u32) -> AccessResult {
        match self.cfg.write_policy {
            WritePolicy::WriteThrough => {
                let (set, tag) = self.set_and_tag(addr);
                AccessResult {
                    hit: self.set_ways(set).iter().any(|w| w.valid && w.tag == tag),
                    writeback: None,
                }
            }
            WritePolicy::WriteBack => self.access(addr, true),
        }
    }

    /// Installs a line arriving from an upper level's write-back
    /// (write-back L2 only): a present line is overwritten (and dirtied)
    /// in place, an absent line is allocated dirty with **no fill read
    /// charged** — a sector-write simplification: when this level's lines
    /// are larger than the incoming one (16-byte L1 lines into 32-byte L2
    /// lines by default), real write-allocate hardware would fetch the
    /// remainder, while this model allocates the containing line dirty
    /// for free. The WCET analyzer charges the *same* constant
    /// (`l1_writeback_cycles` = L2 lookup + word-per-cycle transfer), so
    /// the two sides agree and soundness is unaffected. Returns the
    /// evicted dirty victim's address, if any (the cascade charge).
    pub fn install_writeback(&mut self, addr: u32) -> Option<u32> {
        self.access(addr, true).writeback
    }

    /// Whether the line containing `addr` is currently present (no state
    /// change) — used by analysis soundness tests.
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.set_ways(set).iter().any(|w| w.valid && w.tag == tag)
    }

    /// Whether the line containing `addr` is present *and dirty* (no
    /// state change; tests only).
    pub fn probe_dirty(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.set_ways(set)
            .iter()
            .any(|w| w.valid && w.dirty && w.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflict() {
        let mut c = Cache::new(CacheConfig::unified(64)); // 4 sets of 16B
        assert!(!c.read(0x100).hit);
        assert!(c.read(0x100).hit);
        assert!(c.read(0x104).hit, "same line");
        // 0x140 maps to the same set (64-byte stride), evicts.
        assert!(!c.read(0x140).hit);
        assert!(!c.read(0x100).hit, "evicted by conflict");
    }

    #[test]
    fn two_way_lru_keeps_both() {
        let cfg = CacheConfig::set_assoc(64, 2, Replacement::Lru);
        let mut c = Cache::new(cfg); // 2 sets × 2 ways
        c.read(0x000);
        c.read(0x040); // same set, second way
        assert!(c.read(0x000).hit);
        assert!(c.read(0x040).hit);
        // Third conflicting line evicts the LRU one (0x000 touched last ⇒
        // 0x040 is LRU... we touched 0x040 after 0x000, then 0x000, so LRU
        // is 0x040).
        c.read(0x080);
        assert!(
            !c.read(0x000).hit,
            "0x000 was LRU after 0x040 hit? order check"
        );
    }

    #[test]
    fn lru_order_detailed() {
        let cfg = CacheConfig::set_assoc(32, 2, Replacement::Lru); // 1 set, 2 ways
        let mut c = Cache::new(cfg);
        c.read(0x00); // A
        c.read(0x10); // B
        c.read(0x00); // touch A → LRU is B
        c.read(0x20); // C evicts B
        assert!(c.probe(0x00));
        assert!(!c.probe(0x10));
        assert!(c.probe(0x20));
    }

    #[test]
    fn write_through_does_not_allocate() {
        let mut c = Cache::new(CacheConfig::unified(64));
        assert!(!c.write(0x200).hit);
        assert!(!c.probe(0x200), "no write-allocate");
        c.read(0x200);
        assert!(c.write(0x200).hit);
        assert!(c.probe(0x200));
        assert!(!c.probe_dirty(0x200), "write-through holds no dirty state");
    }

    #[test]
    fn write_back_allocates_and_dirties() {
        let mut c = Cache::new(CacheConfig::unified(64).write_back());
        // Store miss: write-allocate, line dirty, no victim yet.
        let w = c.write(0x200);
        assert!(!w.hit);
        assert_eq!(w.writeback, None);
        assert!(c.probe(0x200) && c.probe_dirty(0x200));
        // Store hit: stays dirty.
        assert!(c.write(0x204).hit);
        // A conflicting read evicts the dirty line and reports it.
        let r = c.read(0x240); // same 4-set cache: 0x240 maps with 0x200
        assert!(!r.hit);
        assert_eq!(r.writeback, Some(0x200));
        assert!(!c.probe_dirty(0x240), "read fills are clean");
        // Evicting the clean line reports nothing.
        assert_eq!(c.read(0x280).writeback, None);
    }

    #[test]
    fn read_fill_then_store_dirties_then_eviction_reports() {
        let mut c = Cache::new(CacheConfig::unified(64).write_back());
        c.read(0x100); // clean fill
        assert!(!c.probe_dirty(0x100));
        assert!(c.write(0x100).hit); // dirtied in place
        assert!(c.probe_dirty(0x100));
        assert_eq!(c.read(0x140).writeback, Some(0x100));
    }

    #[test]
    fn install_writeback_cascades() {
        let cfg = CacheConfig {
            line: 16,
            ..CacheConfig::l2(64).write_back()
        }; // 1 set × 4 ways of 16 B
        let mut c = Cache::new(cfg);
        for a in [0x000u32, 0x040, 0x080, 0x0C0] {
            assert_eq!(c.install_writeback(a), None);
        }
        // Fifth dirty line evicts the LRU dirty one.
        assert_eq!(c.install_writeback(0x100), Some(0x000));
        assert!(c.probe_dirty(0x100));
    }

    #[test]
    fn round_robin_cycles_ways() {
        let cfg = CacheConfig::set_assoc(32, 2, Replacement::RoundRobin); // 1 set
        let mut c = Cache::new(cfg);
        c.read(0x00);
        c.read(0x10);
        c.read(0x20); // evicts way 0 (A)
        assert!(!c.probe(0x00));
        assert!(c.probe(0x10));
        c.read(0x30); // evicts way 1 (B)
        assert!(!c.probe(0x10));
        assert!(c.probe(0x20) && c.probe(0x30));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mk = |seed| {
            let cfg = CacheConfig::set_assoc(64, 4, Replacement::Random { seed });
            let mut c = Cache::new(cfg);
            let mut pattern = Vec::new();
            for i in 0..64u32 {
                pattern.push(c.read(i * 16 * 7).hit);
            }
            pattern
        };
        assert_eq!(mk(42), mk(42));
    }

    #[test]
    fn geometry() {
        let cfg = CacheConfig::unified(8192);
        assert_eq!(cfg.num_sets(), 512);
        let cfg = CacheConfig::set_assoc(8192, 4, Replacement::Lru);
        assert_eq!(cfg.num_sets(), 128);
    }
}
