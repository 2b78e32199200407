//! Abstract cache domains (Ferdinand-style MUST and MAY caches), the
//! classification records every analysis reports, and the persistence
//! ("first miss") extension of the paper's single-L1 setup.
//!
//! The MUST cache maps each set to the lines *guaranteed* present, with an
//! upper bound on their LRU age; the join is intersection with maximum age.
//! For random and round-robin replacement a miss may evict *any* line of
//! the set, so the abstract update collapses the set to just the accessed
//! line — exactly why the paper notes that ARM7's random replacement makes
//! "precise estimates for cache behavior difficult".
//!
//! Accesses with unknown addresses (array ranges, stack windows) weaken
//! every set their range maps to — in a unified cache a data access can
//! evict code, which is the mechanism behind the paper's headline result
//! (cache WCET stays high regardless of cache size). The analyzer that
//! drives these domains over a program is [`crate::multilevel`].

use crate::addrinfo::data_accesses;
use crate::cfg::FuncCfg;
use crate::loops::NaturalLoop;
use spmlab_isa::annot::{AddrInfo, AnnotationSet};
use spmlab_isa::cachecfg::{CacheConfig, CacheScope, SetIndexer};
use spmlab_isa::hierarchy::{MemHierarchyConfig, L1};
use spmlab_isa::insn::Insn;
use spmlab_isa::mem::{MemoryMap, RegionKind};
use std::collections::{BTreeMap, BTreeSet};

/// The abstract MUST cache, packed for the analyzer's hot path.
///
/// Instead of one heap `BTreeMap<tag, age>` per set, the state is a flat
/// `assoc`-strided slot store: set `s` owns slots
/// `[s * assoc, s * assoc + occ[s])` of the parallel `tags`/`ages` vectors,
/// packed to the front of the stride. Every transfer-function step
/// (`update`, the uncertain update, weakening, `join_into`) is in-place and
/// `O(assoc)` per touched set — no allocation, no tree rebalancing — which
/// is what makes whole-program fixpoints cheap enough for large hierarchy
/// sweeps. The original `BTreeMap` domain is retained under
/// [`reference`] (`#[cfg(test)]`) as the executable specification the
/// proptest differential suite checks this representation against.
#[derive(Debug, Clone)]
pub struct AbstractCache {
    assoc: u16,
    idx: spmlab_isa::cachecfg::SetIndexer,
    /// Slot tags, `assoc`-strided per set; only `occ[s]` leading slots of a
    /// stride are meaningful.
    tags: Vec<u32>,
    /// Upper age bound per slot (0 = most recently used), parallel to
    /// `tags`.
    ages: Vec<u16>,
    /// Occupied slot count per set.
    occ: Vec<u16>,
}

/// Equality is per-set *set* equality (slot order within a stride is an
/// implementation artifact of in-place compaction).
impl PartialEq for AbstractCache {
    fn eq(&self, other: &AbstractCache) -> bool {
        if self.assoc != other.assoc || self.occ != other.occ {
            return false;
        }
        let a = self.assoc as usize;
        self.occ.iter().enumerate().all(|(set, &n)| {
            let base = set * a;
            let ob = &other.tags[base..base + n as usize];
            let oa = &other.ages[base..base + n as usize];
            (0..n as usize).all(|r| {
                ob.iter()
                    .position(|&t| t == self.tags[base + r])
                    .is_some_and(|p| oa[p] == self.ages[base + r])
            })
        })
    }
}

impl Eq for AbstractCache {}

impl AbstractCache {
    /// The empty MUST cache: nothing is guaranteed (analysis start state).
    pub fn top(cfg: &CacheConfig) -> AbstractCache {
        let idx = cfg.indexer();
        let assoc = cfg.assoc.min(u16::MAX as u32) as u16;
        let slots = idx.num_sets() as usize * assoc as usize;
        AbstractCache {
            assoc,
            idx,
            tags: vec![0; slots],
            ages: vec![0; slots],
            occ: vec![0; idx.num_sets() as usize],
        }
    }

    /// Whether the line holding `addr` is guaranteed present.
    pub fn contains(&self, addr: u32) -> bool {
        let (set, tag) = self.idx.set_and_tag(addr);
        let base = set as usize * self.assoc as usize;
        self.tags[base..base + self.occ[set as usize] as usize].contains(&tag)
    }

    /// Join (control-flow merge): intersection with maximum age. The
    /// by-value form used by tests; the fixpoint uses [`Self::join_into`].
    pub fn join(&self, other: &AbstractCache) -> AbstractCache {
        let mut out = self.clone();
        out.join_into(other);
        out
    }

    /// In-place join `self ← self ⊓ other`: per-set intersection with
    /// maximum age. Returns whether `self` changed — the fixpoint's change
    /// detection, replacing whole-state comparisons. Sets with nothing
    /// guaranteed in `self` are skipped outright (they cannot shrink), so
    /// a join after a call-clobber touches no slots at all.
    pub fn join_into(&mut self, other: &AbstractCache) -> bool {
        debug_assert_eq!(self.assoc, other.assoc, "geometry mismatch in join");
        debug_assert_eq!(self.occ.len(), other.occ.len(), "geometry mismatch");
        let a = self.assoc as usize;
        let mut changed = false;
        for set in 0..self.occ.len() {
            let n = self.occ[set] as usize;
            if n == 0 {
                continue; // Already bottom-of-set: intersection is a no-op.
            }
            let base = set * a;
            let on = other.occ[set] as usize;
            let otags = &other.tags[base..base + on];
            let oages = &other.ages[base..base + on];
            let mut w = 0usize;
            for r in 0..n {
                let t = self.tags[base + r];
                let g = self.ages[base + r];
                match otags.iter().position(|&x| x == t) {
                    Some(p) => {
                        let m = g.max(oages[p]);
                        changed |= m != g;
                        self.tags[base + w] = t;
                        self.ages[base + w] = m;
                        w += 1;
                    }
                    None => changed = true,
                }
            }
            self.occ[set] = w as u16;
        }
        changed
    }

    /// An exact-address read: returns whether it is a guaranteed hit, then
    /// updates the state in place — promote the line to age 0 and age the
    /// younger lines (LRU), or collapse the set to just the accessed line
    /// on a possible miss (random/round-robin, where a miss may evict any
    /// line of the set).
    pub fn access_read_exact(&mut self, addr: u32, lru: bool) -> bool {
        let (set, tag) = self.idx.set_and_tag(addr);
        let assoc = self.assoc;
        let base = set as usize * assoc as usize;
        let n = self.occ[set as usize] as usize;
        let hit_age = self.tags[base..base + n]
            .iter()
            .position(|&t| t == tag)
            .map(|p| self.ages[base + p]);
        if lru {
            let old_age = hit_age.unwrap_or(assoc);
            let mut w = 0usize;
            for r in 0..n {
                let t = self.tags[base + r];
                if t == tag {
                    continue; // Reinserted at age 0 below.
                }
                let mut g = self.ages[base + r];
                if g < old_age {
                    g += 1;
                }
                if g < assoc {
                    self.tags[base + w] = t;
                    self.ages[base + w] = g;
                    w += 1;
                }
            }
            self.tags[base + w] = tag;
            self.ages[base + w] = 0;
            self.occ[set as usize] = (w + 1) as u16;
        } else if let Some(p) = self.tags[base..base + n].iter().position(|&t| t == tag) {
            self.ages[base + p] = 0;
        } else {
            self.tags[base] = tag;
            self.ages[base] = 0;
            self.occ[set as usize] = 1;
        }
        hit_age.is_some()
    }

    /// The *uncertain* read update `join(s, update(s))` — for an access
    /// that may or may not occur (e.g. an L2 access behind an L1 that
    /// could not be classified). Sound in both worlds; equivalent to a
    /// whole-state clone + update + join, but computed in place on the one
    /// set the address maps to. Returns whether the line was guaranteed
    /// present *before* the access.
    pub fn access_read_uncertain(&mut self, addr: u32, lru: bool) -> bool {
        let (set, tag) = self.idx.set_and_tag(addr);
        let assoc = self.assoc;
        let base = set as usize * assoc as usize;
        let n = self.occ[set as usize] as usize;
        let hit_age = self.tags[base..base + n]
            .iter()
            .position(|&t| t == tag)
            .map(|p| self.ages[base + p]);
        if lru {
            // Joining s with update(s): the accessed tag keeps its old age
            // (max with 0); every other line takes its aged value (max of
            // old and old+1) and drops out when aging would evict it.
            let old_age = hit_age.unwrap_or(assoc);
            let mut w = 0usize;
            for r in 0..n {
                let t = self.tags[base + r];
                let g = self.ages[base + r];
                let g2 = if t == tag {
                    g
                } else if g < old_age {
                    g + 1
                } else {
                    g
                };
                if g2 < assoc {
                    self.tags[base + w] = t;
                    self.ages[base + w] = g2;
                    w += 1;
                }
            }
            self.occ[set as usize] = w as u16;
        } else if hit_age.is_none() {
            // update(s) collapses the set to the accessed line, which is
            // not in s: the intersection is empty.
            self.occ[set as usize] = 0;
        }
        // On a non-LRU hit, update(s) only re-inserts the tag at age 0 and
        // the join takes the (older) existing age: s is unchanged.
        hit_age.is_some()
    }

    /// One *possible* access to `set` (unknown address): ages the set (LRU)
    /// or clears it (random/round-robin).
    pub fn weaken_set(&mut self, set: usize, lru: bool) {
        let assoc = self.assoc;
        let base = set * assoc as usize;
        let n = self.occ[set] as usize;
        if !lru {
            self.occ[set] = 0;
            return;
        }
        let mut w = 0usize;
        for r in 0..n {
            let g = self.ages[base + r] + 1;
            if g < assoc {
                self.tags[base + w] = self.tags[base + r];
                self.ages[base + w] = g;
                w += 1;
            }
        }
        self.occ[set] = w as u16;
    }

    /// An access somewhere in `[lo, hi)`: weakens every candidate set.
    pub fn weaken_range(&mut self, lo: u32, hi: u32, lru: bool) {
        if hi <= lo {
            return;
        }
        let num_sets = self.idx.num_sets();
        let first_line = self.idx.line_of(lo);
        let last_line = self.idx.line_of(hi - 1);
        if (last_line - first_line) as u64 + 1 >= num_sets as u64 {
            for s in 0..num_sets as usize {
                self.weaken_set(s, lru);
            }
            return;
        }
        let mut line = first_line;
        loop {
            self.weaken_set(self.idx.set_of_line(line) as usize, lru);
            if line == last_line {
                break;
            }
            line += 1;
        }
    }

    /// Forgets everything (function-call clobber).
    pub fn clear(&mut self) {
        self.occ.fill(0);
    }

    /// Total guaranteed lines (diagnostics).
    pub fn guaranteed_lines(&self) -> usize {
        self.occ.iter().map(|&n| n as usize).sum()
    }

    /// Applies the worst-case interference of a called function to this
    /// MUST state: every guaranteed line ages by the number of *distinct*
    /// conflicting lines the callee may load into its set (`footprint`),
    /// dropping out at `assoc`; a set with an unbounded footprint loses
    /// everything; under non-LRU replacement any possible conflicting
    /// access may evict, so a single conflict clears the line. The
    /// callee's own exit guarantees (`exit_must`, computed from a TOP
    /// entry so they hold in any context) are then unioned in with
    /// minimum age — both bounds are valid upper bounds on the true age.
    pub fn apply_call(
        &mut self,
        footprint: &MayCache,
        exit_must: Option<&AbstractCache>,
        lru: bool,
    ) {
        debug_assert_eq!(self.occ.len(), footprint.occ.len(), "geometry mismatch");
        let a = self.assoc as usize;
        for set in 0..self.occ.len() {
            let base = set * a;
            let n = self.occ[set] as usize;
            if n > 0 {
                if footprint.top[set] {
                    self.occ[set] = 0;
                } else {
                    let fbase = set * footprint.cap as usize;
                    let ftags = &footprint.tags[fbase..fbase + footprint.occ[set] as usize];
                    let mut w = 0usize;
                    for r in 0..n {
                        let t = self.tags[base + r];
                        let conflicts = ftags.iter().filter(|&&x| x != t).count();
                        if lru {
                            let g2 = self.ages[base + r] as usize + conflicts;
                            if g2 < a {
                                self.tags[base + w] = t;
                                self.ages[base + w] = g2 as u16;
                                w += 1;
                            }
                        } else if conflicts == 0 {
                            self.tags[base + w] = t;
                            self.ages[base + w] = self.ages[base + r];
                            w += 1;
                        }
                    }
                    self.occ[set] = w as u16;
                }
            }
            if let Some(em) = exit_must {
                let en = em.occ[set] as usize;
                for r in 0..en {
                    let t = em.tags[base + r];
                    let g = em.ages[base + r];
                    let n = self.occ[set] as usize;
                    match self.tags[base..base + n].iter().position(|&x| x == t) {
                        Some(p) => self.ages[base + p] = self.ages[base + p].min(g),
                        None if n < a => {
                            self.tags[base + n] = t;
                            self.ages[base + n] = g;
                            self.occ[set] = (n + 1) as u16;
                        }
                        None => {}
                    }
                }
            }
        }
    }

    /// Canonical per-set `(tag, age)` listing, sorted by tag — the shape
    /// the differential tests compare against the reference model.
    #[cfg(test)]
    pub(crate) fn dump(&self) -> Vec<Vec<(u32, u16)>> {
        let a = self.assoc as usize;
        self.occ
            .iter()
            .enumerate()
            .map(|(set, &n)| {
                let base = set * a;
                let mut v: Vec<(u32, u16)> = (0..n as usize)
                    .map(|r| (self.tags[base + r], self.ages[base + r]))
                    .collect();
                v.sort_unstable();
                v
            })
            .collect()
    }
}

/// The abstract MAY cache — the dual of [`AbstractCache`], packed the same
/// way for the analyzer's hot path.
///
/// Where the MUST cache under-approximates (a line in the state is
/// *guaranteed* present, ages are upper bounds), the MAY cache
/// over-approximates: a line **absent** from a set is *guaranteed not* in
/// the concrete cache on any path reaching the program point, and ages are
/// **lower** bounds. That absence is exactly the Hardy–Puaut **Always-Miss**
/// classification: an access whose line is MAY-absent from its L1 can never
/// hit there, so it *always* continues to the next level (cache access
/// classification `A`), which in turn lets the L2 MUST analysis take the
/// *certain* update and prove L2 hits behind an L1.
///
/// Lattice: bigger = more lines possible, with smaller ages. The join is
/// **union with minimum age** (any merged path's contents remain possible);
/// the analysis start state at program boot is [`MayCache::cold`] — the
/// empty state, because the hardware powers up with every line invalid —
/// and the conservative element is [`MayCache::top`], "anything may be
/// cached", used after calls into unanalyzed context and as the safe
/// fallback.
///
/// Representation: the same flat strided slot store as the MUST domain,
/// except that a MAY set can hold *more* than `assoc` candidate lines (the
/// union join accumulates lines from different paths), so each set owns
/// `cap ≥ assoc` slots plus a `top` flag; any operation that would overflow
/// the stride widens the set to `top`, which is always sound and only
/// costs precision. The `BTreeMap` reference model lives in
/// [`reference`] (`#[cfg(test)]`) and the proptest differential suite
/// drives both through random operation sequences.
///
/// ```
/// use spmlab_isa::cachecfg::CacheConfig;
/// use spmlab_wcet::cache::MayCache;
///
/// let cfg = CacheConfig::unified(64); // direct-mapped, 16-byte lines
/// let mut may = MayCache::cold(&cfg);
/// assert!(!may.contains(0x0010_0000), "cold caches hold nothing");
/// may.access_read_exact(0x0010_0000, true);
/// assert!(may.contains(0x0010_0000));
/// // A definite access to a conflicting line evicts it from the
/// // direct-mapped MAY state: the next access is a provable Always-Miss.
/// may.access_read_exact(0x0010_0040, true);
/// assert!(!may.contains(0x0010_0000));
/// ```
#[derive(Debug, Clone)]
pub struct MayCache {
    assoc: u16,
    /// Slots per set (`>= assoc`); overflowing a stride widens to `top`.
    cap: u16,
    idx: spmlab_isa::cachecfg::SetIndexer,
    /// Slot tags, `cap`-strided per set.
    tags: Vec<u32>,
    /// Lower age bound per slot (0 = may be most recently used).
    ages: Vec<u16>,
    /// Occupied slot count per set (meaningless while `top`).
    occ: Vec<u16>,
    /// Per-set "anything may be cached" flag.
    top: Vec<bool>,
}

/// Extra slots beyond `assoc` a MAY set keeps before widening to `top`;
/// sized so whole-function footprints (the interprocedural call
/// summaries) and ordinary join fan-in stay representable for the
/// benchmark suite's code sizes.
const MAY_EXTRA_SLOTS: u16 = 24;

/// Equality is per-set *set* equality plus the `top` flags (slot order is
/// an implementation artifact, and ages are ignored for `top` sets).
impl PartialEq for MayCache {
    fn eq(&self, other: &MayCache) -> bool {
        self.assoc == other.assoc && self.dump() == other.dump()
    }
}

impl Eq for MayCache {}

impl MayCache {
    fn with_tops(cfg: &CacheConfig, top: bool) -> MayCache {
        let idx = cfg.indexer();
        let assoc = cfg.assoc.min(u16::MAX as u32) as u16;
        let cap = assoc.saturating_add(MAY_EXTRA_SLOTS);
        let sets = idx.num_sets() as usize;
        MayCache {
            assoc,
            cap,
            idx,
            tags: vec![0; sets * cap as usize],
            ages: vec![0; sets * cap as usize],
            occ: vec![0; sets],
            top: vec![top; sets],
        }
    }

    /// The boot state: every line invalid, so *nothing* may be cached.
    pub fn cold(cfg: &CacheConfig) -> MayCache {
        MayCache::with_tops(cfg, false)
    }

    /// The conservative state: anything may be cached (no Always-Miss can
    /// be proven anywhere).
    pub fn top(cfg: &CacheConfig) -> MayCache {
        MayCache::with_tops(cfg, true)
    }

    /// Whether the line holding `addr` *may* be present. `false` is the
    /// proof: the line is definitely not cached (Always-Miss).
    pub fn contains(&self, addr: u32) -> bool {
        let (set, tag) = self.idx.set_and_tag(addr);
        if self.top[set as usize] {
            return true;
        }
        let base = set as usize * self.cap as usize;
        self.tags[base..base + self.occ[set as usize] as usize].contains(&tag)
    }

    fn widen_set(&mut self, set: usize) {
        self.top[set] = true;
        self.occ[set] = 0;
    }

    /// An exact-address read that definitely occurs: returns whether the
    /// line *may* have been present before, then applies the concrete
    /// update's best case. Under LRU the accessed line moves to age 0 and
    /// every line whose lower bound is ≤ the accessed line's old bound
    /// ages by one (it *may* stay put only if it was already older), so
    /// lines reaching `assoc` are definitely evicted. Under random /
    /// round-robin no line can ever be proven evicted, so lines only
    /// accumulate (until the stride widens to `top`).
    pub fn access_read_exact(&mut self, addr: u32, lru: bool) -> bool {
        let (set, tag) = self.idx.set_and_tag(addr);
        let set = set as usize;
        if self.top[set] {
            return true;
        }
        let assoc = self.assoc;
        let base = set * self.cap as usize;
        let n = self.occ[set] as usize;
        let hit_age = self.tags[base..base + n]
            .iter()
            .position(|&t| t == tag)
            .map(|p| self.ages[base + p]);
        let mut w = 0usize;
        for r in 0..n {
            let t = self.tags[base + r];
            if t == tag {
                continue; // Reinserted at age 0 below.
            }
            let mut g = self.ages[base + r];
            if lru {
                // Shift iff the line may be younger-or-equal to the
                // accessed one (g ≤ its old lower bound); a definite miss
                // (hit_age None) shifts everyone.
                if hit_age.is_none_or(|ha| g <= ha) {
                    g += 1;
                }
                if g >= assoc {
                    continue; // Definitely evicted even in the best case.
                }
            }
            self.tags[base + w] = t;
            self.ages[base + w] = g;
            w += 1;
        }
        if w >= self.cap as usize {
            self.widen_set(set);
            return hit_age.is_some();
        }
        self.tags[base + w] = tag;
        self.ages[base + w] = 0;
        self.occ[set] = (w + 1) as u16;
        hit_age.is_some()
    }

    /// The *uncertain* read update `join(s, update(s))` — for an access
    /// that may or may not occur. In the MAY domain the join takes minimum
    /// ages, so every existing line keeps its (smaller) pre-access bound
    /// and the accessed line is simply inserted/promoted to age 0. Returns
    /// whether the line may have been present before.
    pub fn access_read_uncertain(&mut self, addr: u32) -> bool {
        let (set, tag) = self.idx.set_and_tag(addr);
        let set = set as usize;
        if self.top[set] {
            return true;
        }
        let base = set * self.cap as usize;
        let n = self.occ[set] as usize;
        match self.tags[base..base + n].iter().position(|&t| t == tag) {
            Some(p) => {
                self.ages[base + p] = 0;
                true
            }
            None => {
                if n >= self.cap as usize {
                    self.widen_set(set);
                } else {
                    self.tags[base + n] = tag;
                    self.ages[base + n] = 0;
                    self.occ[set] = (n + 1) as u16;
                }
                false
            }
        }
    }

    /// A possible read somewhere in `[lo, hi)`: any line of the range may
    /// now be cached, so every candidate set widens to `top`.
    pub fn weaken_range(&mut self, lo: u32, hi: u32) {
        if hi <= lo {
            return;
        }
        let num_sets = self.idx.num_sets();
        let first_line = self.idx.line_of(lo);
        let last_line = self.idx.line_of(hi - 1);
        if (last_line - first_line) as u64 + 1 >= num_sets as u64 {
            self.make_top();
            return;
        }
        let mut line = first_line;
        loop {
            self.widen_set(self.idx.set_of_line(line) as usize);
            if line == last_line {
                break;
            }
            line += 1;
        }
    }

    /// Forgets every impossibility: anything may be cached (function-call
    /// clobber — the dual of the MUST domain's `clear`).
    pub fn make_top(&mut self) {
        self.top.iter_mut().for_each(|t| *t = true);
        self.occ.fill(0);
    }

    /// Records that the line holding `addr` may be (or definitely is)
    /// loaded at some point — used to build the call summaries' footprint
    /// and definite-access sets. Equivalent to an uncertain access.
    pub fn add_line(&mut self, addr: u32) {
        self.access_read_uncertain(addr);
    }

    /// In-place join `self ← self ⊔ other`: per-set union with minimum
    /// age; `top` absorbs. Returns whether `self` changed.
    pub fn join_into(&mut self, other: &MayCache) -> bool {
        debug_assert_eq!(self.assoc, other.assoc, "geometry mismatch in join");
        debug_assert_eq!(self.occ.len(), other.occ.len(), "geometry mismatch");
        let cap = self.cap as usize;
        let mut changed = false;
        for set in 0..self.occ.len() {
            if self.top[set] {
                continue; // Already everything.
            }
            if other.top[set] {
                self.widen_set(set);
                changed = true;
                continue;
            }
            let base = set * cap;
            let on = other.occ[set] as usize;
            for r in 0..on {
                if self.top[set] {
                    break;
                }
                let t = other.tags[base + r];
                let g = other.ages[base + r];
                let n = self.occ[set] as usize;
                match self.tags[base..base + n].iter().position(|&x| x == t) {
                    Some(p) => {
                        if g < self.ages[base + p] {
                            self.ages[base + p] = g;
                            changed = true;
                        }
                    }
                    None => {
                        if n >= cap {
                            self.widen_set(set);
                        } else {
                            self.tags[base + n] = t;
                            self.ages[base + n] = g;
                            self.occ[set] = (n + 1) as u16;
                        }
                        changed = true;
                    }
                }
            }
        }
        changed
    }

    /// Applies the worst-case interference of a called function to this
    /// MAY state: every surviving candidate line's lower age bound is
    /// raised to the number of *distinct* lines the callee **definitely**
    /// accesses in its set (each of which is younger than the candidate
    /// at exit, or evicted it along the way), dropping candidates that
    /// reach `assoc`; then everything the callee *may* load (`footprint`)
    /// becomes possible via the union join. Under non-LRU replacement
    /// definite accesses never prove eviction, so ages are left alone.
    ///
    /// The raise is `max(age, definite)` rather than `age + definite`: a
    /// definitely-accessed line may already have been among the ones
    /// younger than the candidate, so the two counts cannot be summed.
    pub fn apply_call(&mut self, definite: &MayCache, footprint: &MayCache, lru: bool) {
        debug_assert_eq!(self.occ.len(), definite.occ.len(), "geometry mismatch");
        let assoc = self.assoc as usize;
        let cap = self.cap as usize;
        if lru {
            for set in 0..self.occ.len() {
                if self.top[set] {
                    continue;
                }
                let n = self.occ[set] as usize;
                if n == 0 {
                    continue;
                }
                let base = set * cap;
                let dtop = definite.top[set];
                let dbase = set * definite.cap as usize;
                let dtags = if dtop {
                    &[][..]
                } else {
                    &definite.tags[dbase..dbase + definite.occ[set] as usize]
                };
                let mut w = 0usize;
                for r in 0..n {
                    let t = self.tags[base + r];
                    // A widened definite set recorded more distinct lines
                    // than the stride holds — certainly enough to evict.
                    let d = if dtop {
                        assoc
                    } else {
                        dtags.iter().filter(|&&x| x != t).count()
                    };
                    let g2 = (self.ages[base + r] as usize).max(d);
                    if g2 < assoc {
                        self.tags[base + w] = t;
                        self.ages[base + w] = g2 as u16;
                        w += 1;
                    }
                }
                self.occ[set] = w as u16;
            }
        }
        self.join_into(footprint);
    }

    /// Canonical per-set listing: `None` for a `top` set, otherwise the
    /// `(tag, age)` pairs sorted by tag — the shape the differential tests
    /// compare against the reference model (also used by `PartialEq`).
    fn dump(&self) -> Vec<Option<Vec<(u32, u16)>>> {
        let cap = self.cap as usize;
        self.occ
            .iter()
            .enumerate()
            .map(|(set, &n)| {
                if self.top[set] {
                    return None;
                }
                let base = set * cap;
                let mut v: Vec<(u32, u16)> = (0..n as usize)
                    .map(|r| (self.tags[base + r], self.ages[base + r]))
                    .collect();
                v.sort_unstable();
                Some(v)
            })
            .collect()
    }
}

/// Classification statistics for one function.
///
/// The multi-level analysis buckets every access by its L1 cache-hit/miss
/// classification (CHMC): **Always-Hit** (`fetch_hits`/`data_hits`),
/// **Always-Miss** (`fetch_always_miss`/`data_always_miss`, proven by the
/// MAY analysis), or **Not-Classified** (`*_unclassified`). `l2_hits`
/// counts the accesses that continue past the L1 (Always-Miss or
/// Not-Classified at L1, or L1-less traffic) whose line is additionally
/// *guaranteed* in the L2 — the classifications the Hardy–Puaut filter
/// exists to recover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyStats {
    /// Fetches classified always-hit.
    pub fetch_hits: u64,
    /// Fetches that must be assumed misses.
    pub fetch_unclassified: u64,
    /// Data reads classified always-hit.
    pub data_hits: u64,
    /// Data reads assumed misses.
    pub data_unclassified: u64,
    /// Accesses classified persistent (first-miss).
    pub persistent: u64,
    /// Fetches proven Always-Miss at their L1 by the MAY analysis
    /// (multi-level analyses only) — these *certainly* access the L2.
    pub fetch_always_miss: u64,
    /// Data reads proven Always-Miss at their L1.
    pub data_always_miss: u64,
    /// Accesses continuing past the L1 that are guaranteed to hit the L2
    /// (multi-level analyses only).
    pub l2_hits: u64,
    /// Stores absorbed by a write-back level whose target line was
    /// **provably dirty already** — charged without a fresh write-back
    /// obligation (write-back configurations only; see
    /// [`crate::dirty`]).
    pub store_always_dirty: u64,
    /// Stores charged the worst-case write-back obligation (not provably
    /// dirty; write-back configurations only).
    pub store_write_backs: u64,
}

impl ClassifyStats {
    /// The stats as a fixed-order array — the checkpoint wire format.
    /// Order matches the field declaration order; [`ClassifyStats::from_array`]
    /// is the inverse.
    pub fn to_array(&self) -> [u64; 10] {
        [
            self.fetch_hits,
            self.fetch_unclassified,
            self.data_hits,
            self.data_unclassified,
            self.persistent,
            self.fetch_always_miss,
            self.data_always_miss,
            self.l2_hits,
            self.store_always_dirty,
            self.store_write_backs,
        ]
    }

    /// Rebuilds stats from the [`ClassifyStats::to_array`] wire order.
    pub fn from_array(a: [u64; 10]) -> ClassifyStats {
        ClassifyStats {
            fetch_hits: a[0],
            fetch_unclassified: a[1],
            data_hits: a[2],
            data_unclassified: a[3],
            persistent: a[4],
            fetch_always_miss: a[5],
            data_always_miss: a[6],
            l2_hits: a[7],
            store_always_dirty: a[8],
            store_write_backs: a[9],
        }
    }

    /// Merges another function's stats in.
    pub fn absorb(&mut self, o: ClassifyStats) {
        self.fetch_hits += o.fetch_hits;
        self.fetch_unclassified += o.fetch_unclassified;
        self.data_hits += o.data_hits;
        self.data_unclassified += o.data_unclassified;
        self.persistent += o.persistent;
        self.fetch_always_miss += o.fetch_always_miss;
        self.data_always_miss += o.data_always_miss;
        self.l2_hits += o.l2_hits;
        self.store_always_dirty += o.store_always_dirty;
        self.store_write_backs += o.store_write_backs;
    }
}

/// First-miss persistence of one function's loops ([`persistence`]):
/// cache line → header of the outermost loop in which the line is
/// persistent (eviction-free once loaded), plus the lines the census
/// walk has charged a persistent hit for.
#[derive(Debug, Clone)]
pub struct Persistence {
    line_size: u32,
    line_to_loop: BTreeMap<u32, u32>,
    block_to_loops: BTreeMap<u32, Vec<u32>>,
    charged: BTreeSet<u32>,
}

impl Persistence {
    /// Whether a Not-Classified read of `addr` from `block` may be charged
    /// the hit cost: true when its line is persistent in a loop enclosing
    /// `block`. The line is then recorded, and its loop pays one first
    /// miss per entry ([`Persistence::first_misses`]).
    pub fn charge(&mut self, addr: u32, block: u32) -> bool {
        let line = addr / self.line_size * self.line_size;
        let persistent = self.line_to_loop.get(&line).is_some_and(|header| {
            self.block_to_loops
                .get(&block)
                .is_some_and(|hs| hs.contains(header))
        });
        if persistent {
            self.charged.insert(line);
        }
        persistent
    }

    /// First misses per loop entry (header → count): one for each line
    /// some read was actually [charged](Persistence::charge) a persistent
    /// hit for, each costing [`first_miss_cycles`]. A persistent line
    /// whose every read is already a MUST hit costs nothing extra.
    pub fn first_misses(&self) -> BTreeMap<u32, u64> {
        let mut misses = BTreeMap::new();
        for line in &self.charged {
            *misses.entry(self.line_to_loop[line]).or_insert(0) += 1;
        }
        misses
    }
}

/// Cycles one first miss of a persistent line adds over the L1 hit its
/// reads are charged, on the single L1 [`persistence`] models: the line
/// fill of the side the cache serves, fetches first.
pub fn first_miss_cycles(hierarchy: &MemHierarchyConfig) -> u64 {
    let fetch = hierarchy.cached(true);
    let hit = hierarchy.l1_hit_cycles(fetch);
    hierarchy.l1_miss_no_l2_cycles(fetch).max(hit) - hit
}

/// Computes first-miss persistence per loop: a line is persistent in a
/// loop when nothing in the loop can evict it — no calls, no
/// unknown-address reads touching its set, and at most `assoc` distinct
/// exact lines mapping to the set.
///
/// Modelled only for the paper's shape, a single write-through L1 with
/// no L2 behind it (the only shape `MemArchSpec::validate` accepts with
/// persistence); `None` for every other hierarchy.
pub fn persistence(
    cfg: &FuncCfg,
    loops: &[NaturalLoop],
    hierarchy: &MemHierarchyConfig,
    map: &MemoryMap,
    annot: &AnnotationSet,
) -> Option<Persistence> {
    let L1::Unified(cache) = &hierarchy.l1 else {
        return None;
    };
    if hierarchy.l2.is_some() || cache.write_policy.is_write_back() {
        return None;
    }
    let fetch_cached = cache.scope != CacheScope::DataOnly;
    let data_cached = cache.scope != CacheScope::InstrOnly;
    let is_main = |a: u32| map.region_of(a) == RegionKind::Main;
    let line_size = cache.line;
    let idx = cache.indexer();
    let mut p = Persistence {
        line_size,
        line_to_loop: BTreeMap::new(),
        block_to_loops: BTreeMap::new(),
        charged: BTreeSet::new(),
    };
    // Loops sorted inner-first; process outermost last so the outermost
    // persistent loop wins.
    for l in loops {
        let mut exact_lines: Vec<u32> = Vec::new();
        let mut dirty_sets: Vec<bool> = vec![false; idx.num_sets() as usize];
        let mut has_call = false;
        for baddr in &l.body {
            let block = &cfg.blocks[baddr];
            for (addr, insn) in &block.insns {
                if matches!(insn, Insn::Bl { .. }) {
                    has_call = true;
                }
                if fetch_cached {
                    for off in (0..insn.size()).step_by(2) {
                        let a = addr + off;
                        if is_main(a) {
                            exact_lines.push(a / line_size * line_size);
                        }
                    }
                }
                for acc in data_accesses(insn, *addr, annot) {
                    if acc.is_write || !data_cached {
                        continue;
                    }
                    match acc.info {
                        AddrInfo::Exact(a) => {
                            if is_main(a) {
                                exact_lines.push(a / line_size * line_size);
                            }
                        }
                        AddrInfo::Range { lo, hi } => {
                            if map.region_of(lo) == RegionKind::Scratchpad
                                && map.region_of(hi.saturating_sub(1)) == RegionKind::Scratchpad
                            {
                                continue;
                            }
                            mark_dirty(&mut dirty_sets, lo, hi, &idx);
                        }
                        AddrInfo::Stack | AddrInfo::Unknown => {
                            dirty_sets.iter_mut().for_each(|d| *d = true);
                        }
                    }
                }
            }
        }
        if has_call {
            continue;
        }
        exact_lines.sort_unstable();
        exact_lines.dedup();
        // Count lines per set.
        let mut per_set: BTreeMap<u32, u32> = BTreeMap::new();
        for &line in &exact_lines {
            *per_set.entry(idx.set_of(line)).or_insert(0) += 1;
        }
        for &line in &exact_lines {
            let set = idx.set_of(line);
            if dirty_sets[set as usize] || per_set[&set] > cache.assoc {
                continue;
            }
            // Outermost wins: loops are inner-first, so overwrite.
            p.line_to_loop.insert(line, l.header);
        }
    }
    for l in loops {
        for &b in &l.body {
            p.block_to_loops.entry(b).or_default().push(l.header);
        }
    }
    Some(p)
}

fn mark_dirty(dirty: &mut [bool], lo: u32, hi: u32, idx: &SetIndexer) {
    if hi <= lo {
        return;
    }
    let first = idx.line_of(lo);
    let last = idx.line_of(hi - 1);
    if last - first + 1 >= idx.num_sets() {
        dirty.iter_mut().for_each(|d| *d = true);
        return;
    }
    let mut l = first;
    loop {
        dirty[idx.set_of_line(l) as usize] = true;
        if l == last {
            break;
        }
        l += 1;
    }
}

/// Per-address classification record: which instruction addresses carry a
/// *proof* from the abstract analyses. The soundness test-suite checks
/// every set against the simulator's per-instruction counters:
///
/// * `*_always_hit` — MUST proofs: the access can never miss its first
///   cache level in any concrete run;
/// * `*_l1_always_miss` — MAY proofs (multi-level analyses only): the
///   access can never *hit* its L1, so it always continues to the next
///   level — the Hardy–Puaut Always-Miss filter;
/// * `*_l2_always_hit` — combined proofs (multi-level analyses only):
///   whenever the access consults the L2, the line is guaranteed there,
///   so the access can never miss the L2.
///
/// An instruction address enters a set only when *every* access it
/// performs of that kind carries the proof (e.g. both halfword fetches of
/// a 32-bit `BL`), which is what makes the per-instruction simulator
/// counters directly comparable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Classification {
    /// Instruction addresses whose fetch is always-hit.
    pub fetch_always_hit: BTreeSet<u32>,
    /// Instruction addresses whose (exact-address) data read is always-hit.
    pub data_always_hit: BTreeSet<u32>,
    /// Instruction addresses whose every fetch is Always-Miss at the L1.
    pub fetch_l1_always_miss: BTreeSet<u32>,
    /// Instruction addresses whose every data read is Always-Miss at the
    /// L1.
    pub data_l1_always_miss: BTreeSet<u32>,
    /// Instruction addresses whose every L2-consulting fetch is guaranteed
    /// to hit the L2.
    pub fetch_l2_always_hit: BTreeSet<u32>,
    /// Instruction addresses whose every L2-consulting data read is
    /// guaranteed to hit the L2.
    pub data_l2_always_hit: BTreeSet<u32>,
}

impl Classification {
    /// Merges another function's classification.
    pub fn absorb(&mut self, o: &Classification) {
        self.fetch_always_hit
            .extend(o.fetch_always_hit.iter().copied());
        self.data_always_hit
            .extend(o.data_always_hit.iter().copied());
        self.fetch_l1_always_miss
            .extend(o.fetch_l1_always_miss.iter().copied());
        self.data_l1_always_miss
            .extend(o.data_l1_always_miss.iter().copied());
        self.fetch_l2_always_hit
            .extend(o.fetch_l2_always_hit.iter().copied());
        self.data_l2_always_hit
            .extend(o.data_l2_always_hit.iter().copied());
    }
}

/// The single region covering `[lo, hi)`, or `Main` as the safe worst case
/// when the span crosses regions.
pub fn span_region(map: &MemoryMap, lo: u32, hi: u32) -> RegionKind {
    let a = map.region_of(lo);
    let b = map.region_of(hi.saturating_sub(1).max(lo));
    if a == b {
        a
    } else {
        RegionKind::Main
    }
}

/// The original `BTreeMap`-backed MUST domain, retained as the
/// executable specification of the abstract semantics. The packed
/// [`AbstractCache`] must agree with it *exactly* on every operation; the
/// proptest differential suite below drives both through random access
/// sequences over random geometries and compares full states after every
/// step. Line mapping is the shared [`SetIndexer`](spmlab_isa::cachecfg::SetIndexer)'s,
/// which `spmlab-isa` pins against division math.
#[cfg(test)]
pub(crate) mod reference {
    use spmlab_isa::cachecfg::{CacheConfig, SetIndexer};
    use std::collections::BTreeMap;

    /// The reference MUST cache: per set, tag → maximal age.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RefCache {
        assoc: u16,
        idx: SetIndexer,
        sets: Vec<BTreeMap<u32, u16>>,
    }

    impl RefCache {
        pub fn top(cfg: &CacheConfig) -> RefCache {
            RefCache {
                assoc: cfg.assoc.min(u16::MAX as u32) as u16,
                idx: cfg.indexer(),
                sets: vec![BTreeMap::new(); cfg.num_sets() as usize],
            }
        }

        pub fn contains(&self, addr: u32) -> bool {
            let (set, tag) = self.idx.set_and_tag(addr);
            self.sets[set as usize].contains_key(&tag)
        }

        pub fn join(&self, other: &RefCache) -> RefCache {
            let mut sets = Vec::with_capacity(self.sets.len());
            for (a, b) in self.sets.iter().zip(&other.sets) {
                let mut merged = BTreeMap::new();
                for (tag, &age_a) in a {
                    if let Some(&age_b) = b.get(tag) {
                        merged.insert(*tag, age_a.max(age_b));
                    }
                }
                sets.push(merged);
            }
            RefCache {
                assoc: self.assoc,
                idx: self.idx,
                sets,
            }
        }

        fn update_set(lines: &mut BTreeMap<u32, u16>, tag: u32, assoc: u16, lru: bool) {
            let hit = lines.contains_key(&tag);
            if lru {
                let old_age = lines.get(&tag).copied().unwrap_or(assoc);
                for (t, age) in lines.iter_mut() {
                    if *t != tag && *age < old_age {
                        *age += 1;
                    }
                }
                lines.retain(|_, age| *age < assoc);
                lines.insert(tag, 0);
            } else {
                if !hit {
                    lines.clear();
                }
                lines.insert(tag, 0);
            }
        }

        pub fn access_read_exact(&mut self, addr: u32, lru: bool) -> bool {
            let (set, tag) = self.idx.set_and_tag(addr);
            let assoc = self.assoc;
            let lines = &mut self.sets[set as usize];
            let hit = lines.contains_key(&tag);
            Self::update_set(lines, tag, assoc, lru);
            hit
        }

        /// The uncertain update by its *definition*: whole-state clone,
        /// update, join.
        pub fn access_read_uncertain(&mut self, addr: u32, lru: bool) -> bool {
            let before = self.contains(addr);
            let mut updated = self.clone();
            updated.access_read_exact(addr, lru);
            *self = self.join(&updated);
            before
        }

        pub fn weaken_set(&mut self, set: usize, lru: bool) {
            let assoc = self.assoc;
            let lines = &mut self.sets[set];
            if lru {
                for age in lines.values_mut() {
                    *age += 1;
                }
                lines.retain(|_, age| *age < assoc);
            } else {
                lines.clear();
            }
        }

        pub fn weaken_range(&mut self, lo: u32, hi: u32, lru: bool) {
            if hi <= lo {
                return;
            }
            let first_line = self.idx.line_of(lo);
            let last_line = self.idx.line_of(hi - 1);
            if (last_line - first_line) as u64 + 1 >= self.idx.num_sets() as u64 {
                for s in 0..self.sets.len() {
                    self.weaken_set(s, lru);
                }
                return;
            }
            let mut line = first_line;
            loop {
                self.weaken_set(self.idx.set_of_line(line) as usize, lru);
                if line == last_line {
                    break;
                }
                line += 1;
            }
        }

        pub fn clear(&mut self) {
            for s in &mut self.sets {
                s.clear();
            }
        }

        pub fn guaranteed_lines(&self) -> usize {
            self.sets.iter().map(|s| s.len()).sum()
        }

        /// Canonical per-set `(tag, age)` listing matching
        /// [`super::AbstractCache::dump`].
        pub fn dump(&self) -> Vec<Vec<(u32, u16)>> {
            self.sets
                .iter()
                .map(|s| s.iter().map(|(&t, &g)| (t, g)).collect())
                .collect()
        }
    }

    /// The reference MAY cache: per set, either `Top` (anything may be
    /// cached) or tag → minimal age. The executable specification the
    /// packed [`super::MayCache`] is differentially tested against; it
    /// mirrors the packed domain's widening (sets overflowing
    /// `assoc + MAY_EXTRA_SLOTS` lines go to `Top`) so the two stay
    /// bit-comparable.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RefMayCache {
        assoc: u16,
        cap: usize,
        idx: SetIndexer,
        /// `None` = top.
        sets: Vec<Option<BTreeMap<u32, u16>>>,
    }

    impl RefMayCache {
        pub fn cold(cfg: &CacheConfig) -> RefMayCache {
            let assoc = cfg.assoc.min(u16::MAX as u32) as u16;
            RefMayCache {
                assoc,
                cap: assoc as usize + super::MAY_EXTRA_SLOTS as usize,
                idx: cfg.indexer(),
                sets: vec![Some(BTreeMap::new()); cfg.num_sets() as usize],
            }
        }

        pub fn contains(&self, addr: u32) -> bool {
            let (set, tag) = self.idx.set_and_tag(addr);
            self.sets[set as usize]
                .as_ref()
                .is_none_or(|lines| lines.contains_key(&tag))
        }

        pub fn access_read_exact(&mut self, addr: u32, lru: bool) -> bool {
            let (set, tag) = self.idx.set_and_tag(addr);
            let (set, assoc, cap) = (set as usize, self.assoc, self.cap);
            let Some(lines) = &mut self.sets[set] else {
                return true;
            };
            let hit_age = lines.get(&tag).copied();
            if lru {
                let mut next = BTreeMap::new();
                for (&t, &g) in lines.iter() {
                    if t == tag {
                        continue;
                    }
                    // Best case: the line keeps its age only when it may
                    // already be older than the accessed line.
                    let g2 = match hit_age {
                        Some(ha) if g > ha => g,
                        _ => g + 1,
                    };
                    if g2 < assoc {
                        next.insert(t, g2);
                    }
                }
                *lines = next;
            } else {
                lines.remove(&tag);
            }
            lines.insert(tag, 0);
            if lines.len() > cap {
                self.sets[set] = None;
            }
            hit_age.is_some()
        }

        /// The uncertain update by its *definition*: clone, update, join.
        pub fn access_read_uncertain(&mut self, addr: u32) -> bool {
            let before = self.contains(addr);
            let mut updated = self.clone();
            updated.access_read_exact(addr, true);
            // The policy is irrelevant under the min-age join: both
            // branches keep every pre-access line at its pre-access age
            // and add the accessed line at 0 — but compute it honestly.
            *self = self.join(&updated);
            before
        }

        pub fn join(&self, other: &RefMayCache) -> RefMayCache {
            let mut out = self.clone();
            for (set, (a, b)) in out.sets.iter_mut().zip(&other.sets).enumerate() {
                let _ = set;
                let merged = match (a.take(), b) {
                    (None, _) | (_, None) => None,
                    (Some(mut m), Some(bl)) => {
                        for (&t, &g) in bl {
                            m.entry(t)
                                .and_modify(|cur| *cur = (*cur).min(g))
                                .or_insert(g);
                        }
                        (m.len() <= self.cap).then_some(m)
                    }
                };
                *a = merged;
            }
            out
        }

        pub fn weaken_range(&mut self, lo: u32, hi: u32) {
            if hi <= lo {
                return;
            }
            let first_line = self.idx.line_of(lo);
            let last_line = self.idx.line_of(hi - 1);
            if (last_line - first_line) as u64 + 1 >= self.idx.num_sets() as u64 {
                self.make_top();
                return;
            }
            let mut line = first_line;
            loop {
                self.sets[self.idx.set_of_line(line) as usize] = None;
                if line == last_line {
                    break;
                }
                line += 1;
            }
        }

        pub fn make_top(&mut self) {
            for s in &mut self.sets {
                *s = None;
            }
        }

        /// Canonical per-set listing matching the packed domain's.
        pub fn dump(&self) -> Vec<Option<Vec<(u32, u16)>>> {
            self.sets
                .iter()
                .map(|s| {
                    s.as_ref()
                        .map(|lines| lines.iter().map(|(&t, &g)| (t, g)).collect())
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_isa::cachecfg::Replacement;

    #[test]
    fn must_exact_access_then_guaranteed() {
        let mut s = AbstractCache::top(&CacheConfig::unified(64));
        assert!(!s.access_read_exact(0x0010_0000, true), "cold");
        assert!(s.contains(0x0010_0000));
        assert!(s.access_read_exact(0x0010_0004, true), "same line");
    }

    #[test]
    fn uncertain_access_equals_clone_update_join() {
        // The per-set fast path must match the whole-state definition
        // join(s, update(s)) exactly, for both LRU and collapsing policies.
        for lru in [true, false] {
            let cfg = CacheConfig::set_assoc(128, 2, Replacement::Lru);
            let mut s = AbstractCache::top(&cfg);
            for a in [0x000u32, 0x040, 0x010, 0x080] {
                s.access_read_exact(a, lru);
            }
            for probe in [0x000u32, 0x040, 0x0C0, 0x020] {
                let mut fast = s.clone();
                let before_fast = fast.access_read_uncertain(probe, lru);
                let mut updated = s.clone();
                let before_slow = s.contains(probe);
                updated.access_read_exact(probe, lru);
                let slow = s.join(&updated);
                assert_eq!(fast, slow, "lru={lru} probe={probe:#x}");
                assert_eq!(before_fast, before_slow);
                s = slow;
            }
        }
    }

    #[test]
    fn join_is_intersection_with_max_age() {
        let cfg = CacheConfig::set_assoc(64, 2, Replacement::Lru);
        let mut a = AbstractCache::top(&cfg);
        let mut b = AbstractCache::top(&cfg);
        a.access_read_exact(0x100, true); // in a only
        a.access_read_exact(0x200, true);
        b.access_read_exact(0x200, true);
        let j = a.join(&b);
        assert!(j.contains(0x200));
        assert!(!j.contains(0x100));
    }

    #[test]
    fn direct_mapped_unknown_access_clears_everything() {
        let mut s = AbstractCache::top(&CacheConfig::unified(64));
        s.access_read_exact(0x0010_0000, true);
        s.weaken_range(0, u32::MAX, true);
        assert_eq!(s.guaranteed_lines(), 0, "assoc 1: one aging evicts all");
    }

    #[test]
    fn two_way_survives_one_unknown_access() {
        let cfg = CacheConfig::set_assoc(64, 2, Replacement::Lru);
        let mut s = AbstractCache::top(&cfg);
        s.access_read_exact(0x100, true);
        s.weaken_range(0, u32::MAX, true);
        assert!(s.contains(0x100), "age 1 < assoc 2: still guaranteed");
        s.weaken_range(0, u32::MAX, true);
        assert!(!s.contains(0x100), "second unknown access may evict");
    }

    #[test]
    fn random_replacement_miss_clears_set() {
        let cfg = CacheConfig::set_assoc(64, 2, Replacement::Random { seed: 1 });
        let mut s = AbstractCache::top(&cfg);
        s.access_read_exact(0x100, false);
        s.access_read_exact(0x140, false); // same set (2 sets × 2 ways... set stride 32)
                                           // A miss on another line of the same set clears guarantees.
        let before = s.guaranteed_lines();
        s.access_read_exact(0x180, false);
        assert!(s.guaranteed_lines() <= before, "miss collapsed the set");
        assert!(s.contains(0x180));
    }

    #[test]
    fn may_cold_start_gives_always_miss_then_possible_hit() {
        let cfg = CacheConfig::unified(64);
        let mut m = MayCache::cold(&cfg);
        assert!(!m.contains(0x0010_0000), "boot: provable Always-Miss");
        assert!(!m.access_read_exact(0x0010_0000, true));
        assert!(m.contains(0x0010_0000), "loaded: may now hit");
        assert!(m.access_read_exact(0x0010_0004, true), "same line");
    }

    #[test]
    fn may_join_is_union_with_min_age() {
        let cfg = CacheConfig::set_assoc(64, 2, Replacement::Lru);
        let mut a = MayCache::cold(&cfg);
        let mut b = MayCache::cold(&cfg);
        a.access_read_exact(0x100, true); // in a only
        b.access_read_exact(0x110, true); // in b only (the other set)
        b.access_read_exact(0x100, true);
        b.access_read_exact(0x120, true); // ages 0x100 to 1 in b
        let changed = a.join_into(&b);
        assert!(changed);
        assert!(a.contains(0x100) && a.contains(0x110) && a.contains(0x120));
        // 0x100 keeps the *minimum* age (0 from a), so a later conflicting
        // access cannot evict it one step early.
        a.access_read_exact(0x120, true);
        assert!(a.contains(0x100), "min age 0 + 1 < assoc 2");
    }

    #[test]
    fn may_definite_conflicts_evict_direct_mapped_lines() {
        let cfg = CacheConfig::unified(64); // direct-mapped
        let mut m = MayCache::cold(&cfg);
        m.access_read_exact(0x0010_0000, true);
        m.access_read_exact(0x0010_0040, true); // same set, other tag
        assert!(!m.contains(0x0010_0000), "definitely evicted");
        assert!(m.contains(0x0010_0040));
    }

    #[test]
    fn may_random_replacement_never_proves_eviction() {
        let cfg = CacheConfig::set_assoc(64, 2, Replacement::Random { seed: 1 });
        let mut m = MayCache::cold(&cfg);
        m.access_read_exact(0x100, false);
        m.access_read_exact(0x140, false);
        m.access_read_exact(0x180, false); // 3 lines, one set, 2 ways
        assert!(
            m.contains(0x100) && m.contains(0x140) && m.contains(0x180),
            "any of them may have survived the random evictions"
        );
    }

    #[test]
    fn may_unknown_access_widens_to_top() {
        let cfg = CacheConfig::unified(64);
        let mut m = MayCache::cold(&cfg);
        m.weaken_range(0, u32::MAX);
        assert!(m.contains(0x0010_0000), "anything may now be cached");
    }

    #[test]
    fn may_overflow_widens_only_the_set() {
        let cfg = CacheConfig::unified(64); // 4 sets, assoc 1, cap 1 + MAY_EXTRA_SLOTS = 25
        let mut m = MayCache::cold(&cfg);
        let mut probes = Vec::new();
        for i in 0..40u32 {
            // 40 distinct tags, all set 0, via uncertain accesses (which
            // never evict): overflows the stride.
            let a = 0x0010_0000 + i * 64;
            m.access_read_uncertain(a);
            probes.push(a);
        }
        for a in probes {
            assert!(m.contains(a));
        }
        assert!(
            !m.contains(0x0010_0010),
            "set 1 untouched: still provably absent"
        );
    }
}

/// Differential suite: the packed [`AbstractCache`] must agree *exactly*
/// with the retained [`reference::RefCache`] BTreeMap model — same hit
/// classifications, same guaranteed-line sets, same ages — over random
/// access sequences and random geometries drawn from the same families the
/// hierarchy sweeps use (L1-like 16-byte-line configs and L2-like
/// 32-byte-line configs, associativities 1–4, all replacement policies).
#[cfg(test)]
mod differential {
    use super::reference::{RefCache, RefMayCache};
    use super::*;
    use proptest::prelude::*;
    use spmlab_isa::cachecfg::Replacement;

    /// One abstract-domain operation, decoded from random bits.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Exact(u32),
        Uncertain(u32),
        WeakenRange(u32, u32),
        WeakenAll,
        Clear,
    }

    fn decode_op(kind: u8, a: u32, b: u32) -> Op {
        // Concentrate addresses in a small window so sets collide often.
        let addr = 0x0010_0000 + (a % 0x1800);
        match kind % 8 {
            0..=2 => Op::Exact(addr),
            3 | 4 => Op::Uncertain(addr),
            5 => {
                let lo = 0x0010_0000 + (a % 0x1800);
                Op::WeakenRange(lo, lo + (b % 0x400))
            }
            6 => Op::WeakenAll,
            _ => Op::Clear,
        }
    }

    /// Decodes an arbitrary seed into a cache geometry from the families
    /// the sweeps exercise (sizes 64 B – 16 KiB, lines 16/32, assoc 1–4,
    /// every replacement policy).
    fn decode_config(bits: u32) -> CacheConfig {
        let sizes = [64u32, 128, 256, 512, 1024, 4096, 16384];
        let size = sizes[bits as usize % sizes.len()];
        let line = if bits & 8 == 0 { 16 } else { 32 };
        let line = line.min(size);
        let assocs = [1u32, 2, 4];
        let assoc = assocs[(bits >> 4) as usize % assocs.len()].min(size / line);
        let replacement = match (bits >> 6) % 3 {
            0 => Replacement::Lru,
            1 => Replacement::RoundRobin,
            _ => Replacement::Random { seed: 11 },
        };
        let cfg = CacheConfig {
            size,
            line,
            assoc,
            replacement,
            scope: CacheScope::Unified,
            hit_latency: 1,
            write_policy: spmlab_isa::cachecfg::WritePolicy::WriteThrough,
        };
        cfg.validate("l1").unwrap();
        cfg
    }

    use spmlab_isa::cachecfg::CacheScope;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every operation agrees: classification result and full state.
        #[test]
        fn packed_domain_matches_reference(
            cfg_bits in any::<u32>(),
            ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..60),
        ) {
            let cfg = decode_config(cfg_bits);
            let lru = matches!(cfg.replacement, Replacement::Lru);
            let mut packed = AbstractCache::top(&cfg);
            let mut reference = RefCache::top(&cfg);
            for (i, &(kind, a, b)) in ops.iter().enumerate() {
                let op = decode_op(kind, a, b);
                match op {
                    Op::Exact(addr) => {
                        let hp = packed.access_read_exact(addr, lru);
                        let hr = reference.access_read_exact(addr, lru);
                        prop_assert_eq!(hp, hr, "exact hit mismatch at op {} {:?}", i, op);
                    }
                    Op::Uncertain(addr) => {
                        let hp = packed.access_read_uncertain(addr, lru);
                        let hr = reference.access_read_uncertain(addr, lru);
                        prop_assert_eq!(hp, hr, "uncertain hit mismatch at op {} {:?}", i, op);
                    }
                    Op::WeakenRange(lo, hi) => {
                        packed.weaken_range(lo, hi, lru);
                        reference.weaken_range(lo, hi, lru);
                    }
                    Op::WeakenAll => {
                        packed.weaken_range(0, u32::MAX, lru);
                        reference.weaken_range(0, u32::MAX, lru);
                    }
                    Op::Clear => {
                        packed.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(
                    packed.dump(),
                    reference.dump(),
                    "state diverged after op {} {:?} (cfg {:?})",
                    i,
                    op,
                    &cfg
                );
                prop_assert_eq!(packed.guaranteed_lines(), reference.guaranteed_lines());
                // Spot-check classification agreement at a few addresses.
                for probe in [0x0010_0000u32, 0x0010_0040, 0x0010_0800, 0x0010_17F0] {
                    prop_assert_eq!(packed.contains(probe), reference.contains(probe));
                }
            }
        }

        /// The packed MAY domain agrees with its reference model on every
        /// operation: possible-hit classification and full state
        /// (including which sets widened to top).
        #[test]
        fn packed_may_domain_matches_reference(
            cfg_bits in any::<u32>(),
            ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..60),
        ) {
            let cfg = decode_config(cfg_bits);
            let lru = matches!(cfg.replacement, Replacement::Lru);
            let mut packed = MayCache::cold(&cfg);
            let mut reference = RefMayCache::cold(&cfg);
            for (i, &(kind, a, b)) in ops.iter().enumerate() {
                let op = decode_op(kind, a, b);
                match op {
                    Op::Exact(addr) => {
                        let hp = packed.access_read_exact(addr, lru);
                        let hr = reference.access_read_exact(addr, lru);
                        prop_assert_eq!(hp, hr, "may exact mismatch at op {} {:?}", i, op);
                    }
                    Op::Uncertain(addr) => {
                        let hp = packed.access_read_uncertain(addr);
                        let hr = reference.access_read_uncertain(addr);
                        prop_assert_eq!(hp, hr, "may uncertain mismatch at op {} {:?}", i, op);
                    }
                    Op::WeakenRange(lo, hi) => {
                        packed.weaken_range(lo, hi);
                        reference.weaken_range(lo, hi);
                    }
                    Op::WeakenAll => {
                        packed.weaken_range(0, u32::MAX);
                        reference.weaken_range(0, u32::MAX);
                    }
                    Op::Clear => {
                        // The MAY dual of the call clobber.
                        packed.make_top();
                        reference.make_top();
                    }
                }
                prop_assert_eq!(
                    packed.dump(),
                    reference.dump(),
                    "may state diverged after op {} {:?} (cfg {:?})",
                    i,
                    op,
                    &cfg
                );
                for probe in [0x0010_0000u32, 0x0010_0040, 0x0010_0800, 0x0010_17F0] {
                    prop_assert_eq!(packed.contains(probe), reference.contains(probe));
                }
            }
        }

        /// The packed MAY join agrees with the reference join, reports
        /// change exactly, and — the property the Always-Miss filter's
        /// soundness rests on — never *loses* a line: anything possible in
        /// either operand stays possible in the join.
        #[test]
        fn packed_may_join_matches_reference(
            cfg_bits in any::<u32>(),
            ops_a in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..30),
            ops_b in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..30),
        ) {
            let cfg = decode_config(cfg_bits);
            let lru = matches!(cfg.replacement, Replacement::Lru);
            let mut pa = MayCache::cold(&cfg);
            let mut ra = RefMayCache::cold(&cfg);
            let mut pb = MayCache::cold(&cfg);
            let mut rb = RefMayCache::cold(&cfg);
            for &(kind, a, b) in &ops_a {
                match decode_op(kind, a, b) {
                    Op::Exact(addr) => {
                        pa.access_read_exact(addr, lru);
                        ra.access_read_exact(addr, lru);
                    }
                    Op::Uncertain(addr) => {
                        pa.access_read_uncertain(addr);
                        ra.access_read_uncertain(addr);
                    }
                    _ => {}
                }
            }
            for &(kind, a, b) in &ops_b {
                if let Op::Exact(addr) = decode_op(kind, a, b) {
                    pb.access_read_exact(addr, lru);
                    rb.access_read_exact(addr, lru);
                }
            }
            let before = pa.dump();
            let changed = pa.join_into(&pb);
            let joined_ref = ra.join(&rb);
            prop_assert_eq!(pa.dump(), joined_ref.dump(), "may join diverged");
            prop_assert_eq!(
                changed,
                before != pa.dump(),
                "may join_into change report must match actual change"
            );
            // Union property at a few probes: possible in an operand ⇒
            // possible in the join.
            for probe in [0x0010_0000u32, 0x0010_0040, 0x0010_0800] {
                prop_assert!(
                    !pb.contains(probe) || pa.contains(probe),
                    "join lost a possible line at {probe:#x}"
                );
            }
        }

        /// The packed in-place join agrees with the reference join on
        /// states reached through independent random access sequences —
        /// and `join_into` reports change exactly when the state changed.
        #[test]
        fn packed_join_matches_reference(
            cfg_bits in any::<u32>(),
            ops_a in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..30),
            ops_b in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..30),
        ) {
            let cfg = decode_config(cfg_bits);
            let lru = matches!(cfg.replacement, Replacement::Lru);
            let mut pa = AbstractCache::top(&cfg);
            let mut ra = RefCache::top(&cfg);
            let mut pb = AbstractCache::top(&cfg);
            let mut rb = RefCache::top(&cfg);
            for &(kind, a, b) in &ops_a {
                if let Op::Exact(addr) = decode_op(kind, a, b) {
                    pa.access_read_exact(addr, lru);
                    ra.access_read_exact(addr, lru);
                } else if let Op::Uncertain(addr) = decode_op(kind, a, b) {
                    pa.access_read_uncertain(addr, lru);
                    ra.access_read_uncertain(addr, lru);
                }
            }
            for &(kind, a, b) in &ops_b {
                if let Op::Exact(addr) = decode_op(kind, a, b) {
                    pb.access_read_exact(addr, lru);
                    rb.access_read_exact(addr, lru);
                }
            }
            let before = pa.dump();
            let changed = pa.join_into(&pb);
            let joined_ref = ra.join(&rb);
            prop_assert_eq!(pa.dump(), joined_ref.dump(), "join diverged");
            prop_assert_eq!(
                changed,
                before != pa.dump(),
                "join_into change report must match actual change"
            );
        }
    }
}
