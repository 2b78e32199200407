//! Multi-level cache analysis over a [`MemHierarchyConfig`], implementing
//! the complete cache-access-classification (CAC) framework of Hardy &
//! Puaut ("WCET analysis of multi-level set-associative instruction
//! caches", RTSS 2008).
//!
//! # Abstract domains
//!
//! The analysis runs a *product* of abstract caches per program point:
//!
//! * one **MUST** cache ([`AbstractCache`]) per configured level — L1I,
//!   L1D (or one shared state for a unified L1) and the unified L2. A line
//!   in a MUST state is *guaranteed* present; ages are upper bounds; the
//!   control-flow join is intersection with maximum age.
//! * one **MAY** cache ([`MayCache`]) per L1 side. A line *absent* from a
//!   MAY state is guaranteed **not** present; ages are lower bounds; the
//!   join is union with minimum age. The analysis is *cold-start*: the
//!   program-entry MAY state is empty (the hardware powers up with every
//!   line invalid), so first touches — and every re-touch after a provable
//!   eviction — are classified Always-Miss.
//!
//! # Classification
//!
//! Every main-memory access is first classified against its L1 states
//! (the cache hit/miss classification, CHMC): **Always-Hit** (AH) when the
//! MUST state guarantees the line, **Always-Miss** (AM) when the MAY state
//! excludes it, **Not-Classified** (NC) otherwise. The CHMC at L1
//! determines the access's CAC with respect to the L2 — whether the L2
//! sees the access at all:
//!
//! | CHMC at L1      | CAC at L2 | L2 MUST update        | worst-case charge            |
//! |-----------------|-----------|-----------------------|------------------------------|
//! | AH              | `N`       | none                  | L1 hit                       |
//! | AM              | `A`       | certain (`update`)    | L1-miss → L2 hit/miss        |
//! | NC              | `U`       | `join(s, update(s))`  | max(L1 hit, L1-miss → L2 …)  |
//! | *(no L1)*       | `A`       | certain (`update`)    | L2 hit/miss direct           |
//!
//! (Hardy–Puaut's fourth CAC value `UN`, *Uncertain-Never*, arises only
//! from first-miss/persistence classifications at the previous level;
//! persistence is modelled only for a single L1 with no L2 behind it
//! ([`crate::cache::persistence`]), so `UN` is unreachable here — see the
//! README's "Multi-level classification" section for the full lattice.)
//!
//! The `A` classification produced by the Always-Miss filter is what makes
//! L2 hits classifiable *behind* an L1: a certain update leaves the line
//! guaranteed in the L2 MUST state, so a later AM (or NC) access to the
//! same line can be charged the L2-hit penalty instead of the full miss.
//! Without the MAY analysis every access behind an L1 is `U`, the L2 MUST
//! state never gains a line, and no L2 hit is ever classified — the
//! precision gap this module closes.
//!
//! # The write path
//!
//! Stores are routed by the same absorb rule as the simulator
//! ([`MemHierarchyConfig::store_absorb`]): on an all-write-through data
//! path they are region-timed exactly as before the write-policy axis
//! existed (optionally through the store buffer's `1 + drain` worst
//! case); when a write-back level absorbs them they behave like reads
//! for the MUST/MAY domains (write-allocate), and every store to a line
//! not provably dirty additionally pays the worst-case write-back of the
//! line it dirties — the charge-at-store rule whose soundness argument
//! lives in [`crate::dirty`], along with the per-set dirty upper bound
//! ([`crate::dirty::DirtyBound`]) that keeps resident-dirty stores from
//! being charged twice.
//!
//! # Interprocedural entry states
//!
//! Functions are analyzed in call-graph reverse-postorder (callers first):
//! each function's fixpoint starts from the join of its callers' abstract
//! states at the call sites ([`propagate_entry_states`]), the program
//! entry starts *cold* ([`MultiState::cold`]), and anything unknown —
//! functions without recorded callers, the defensive budget-cap fallback —
//! starts from the conservative [`MultiState::top`] (nothing guaranteed,
//! anything possible). Within a function a call applies the callee's
//! [`CallSummary`] — a context-independent record of the lines it may
//! load (footprint), the lines it definitely accesses, and its exit MUST
//! guarantees, accumulated callees-first over the call graph — so caller
//! state survives calls aged by the callee's worst-case interference
//! instead of being wholesale clobbered ([`MultiState::apply_call`];
//! [`MultiState::clobber`] remains the fallback when no summary exists).
//!
//! All cycle constants come from the shared cost model in
//! [`spmlab_isa::hierarchy`], the same numbers the simulator charges, which
//! is what makes the soundness invariant (WCET ≥ simulated cycles)
//! provable level by level; `tests/soundness.rs` checks every
//! classification kind against simulator traces (AH ⇒ never misses, AM ⇒
//! never hits, guaranteed-L2 ⇒ never misses the L2).
//!
//! Accesses with no cache in their path (split hierarchies without one
//! half, scratchpad/MMIO regions, uncached hierarchies) are priced by
//! their region, main memory at the parametric main-memory timing. A
//! hierarchy with no cache level is therefore the paper's scratchpad
//! branch — plain region timing over Table-1 or DRAM-style memories
//! ([`WcetConfig::region_timing_with`](crate::WcetConfig::region_timing_with))
//! — and [`classify`](crate::classify) skips its fixpoints: there is no
//! abstract cache state to compute.
//!
//! # Example
//!
//! ```
//! use spmlab_isa::annot::AnnotationSet;
//! use spmlab_isa::cachecfg::CacheConfig;
//! use spmlab_isa::hierarchy::MemHierarchyConfig;
//! use spmlab_isa::insn::Insn;
//! use spmlab_isa::mem::MemoryMap;
//! use spmlab_wcet::cache::{Classification, ClassifyStats};
//! use spmlab_wcet::cfg::BasicBlock;
//! use spmlab_wcet::multilevel::{block_cost, MultiCtx, MultiState};
//! use std::collections::BTreeMap;
//!
//! let h = MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096));
//! let (map, annot) = (MemoryMap::no_spm(), AnnotationSet::new());
//! let ctx = MultiCtx {
//!     hierarchy: &h,
//!     map: &map,
//!     annot: &annot,
//!     l2_analysis: true,
//!     may_analysis: true,
//!     summaries: None,
//! };
//! // One NOP fetched from main memory, analyzed from the cold boot
//! // state: the L1I is provably empty, so the fetch is an Always-Miss —
//! // charged the L1-miss path with no L1-hit outcome to cover.
//! let block = BasicBlock {
//!     start: 0x0010_0000,
//!     insns: vec![(0x0010_0000, Insn::Nop)],
//!     succs: vec![],
//!     calls: vec![],
//!     is_exit: false,
//! };
//! let cold = MultiState::cold(&ctx);
//! let (mut stats, mut cls) = (ClassifyStats::default(), Classification::default());
//! let cost = block_cost(&block, &cold, &ctx, &BTreeMap::new(), &mut stats, &mut cls, None);
//! assert!(cls.fetch_l1_always_miss.contains(&0x0010_0000));
//! assert_eq!(cost, 1 + h.l1_miss_l2_miss_cycles(true));
//! ```

use crate::addrinfo::{data_accesses, DataAccess};
use crate::cache::{
    span_region, AbstractCache, Classification, ClassifyStats, MayCache, Persistence,
};
use crate::cfg::{BasicBlock, FuncCfg};
use crate::dirty::DirtyBound;
use spmlab_isa::annot::{AddrInfo, AnnotationSet};
use spmlab_isa::cachecfg::{CacheConfig, Replacement};
use spmlab_isa::hierarchy::{MemHierarchyConfig, StoreAbsorb};
use spmlab_isa::insn::Insn;
use spmlab_isa::mem::{access_cycles_with, AccessWidth, MemoryMap, RegionKind};
use std::collections::BTreeMap;
use std::ops::Range;

/// Analysis context shared by the fixpoint and the census walk.
#[derive(Debug, Clone)]
pub struct MultiCtx<'a> {
    /// The machine's memory hierarchy (shared with the simulator).
    pub hierarchy: &'a MemHierarchyConfig,
    /// Memory map (scratchpad/MMIO accesses bypass the hierarchy).
    pub map: &'a MemoryMap,
    /// Access annotations.
    pub annot: &'a AnnotationSet,
    /// When false, the L2 MUST analysis is disabled and every NC access is
    /// charged the full L2-miss penalty — the "L1-only bound with L2
    /// latency" baseline the monotonicity checks compare against.
    pub l2_analysis: bool,
    /// When false, no MAY states are tracked and no access is ever
    /// classified Always-Miss (every non-AH access is NC) — the pre-MAY
    /// baseline the `multilevel-precision` experiment compares against.
    pub may_analysis: bool,
    /// Interprocedural call summaries keyed by callee entry address (see
    /// [`summarize_function`]). When present, a `BL` applies the callee's
    /// worst-case interference ([`MultiState::apply_call`]) instead of
    /// clobbering the whole state; when `None` (or a callee is missing),
    /// calls fall back to the conservative [`MultiState::clobber`].
    pub summaries: Option<&'a BTreeMap<u32, CallSummary>>,
}

impl MultiCtx<'_> {
    fn is_lru(c: &CacheConfig) -> bool {
        matches!(c.replacement, Replacement::Lru)
    }

    fn l1_lru(&self, fetch: bool) -> bool {
        self.hierarchy.l1_for(fetch).is_some_and(Self::is_lru)
    }

    fn l2_lru(&self) -> bool {
        self.hierarchy.l2.as_ref().is_some_and(Self::is_lru)
    }
}

/// Product abstract state: one MUST cache per configured level plus one
/// MAY cache per L1 side (when the MAY analysis is enabled).
///
/// For a unified L1 the single shared state lives in the `i` slot and
/// serves both access kinds — exactly like the simulator's single tag
/// store, so data accesses can evict code in the abstract just as they do
/// concretely. The invariant `MUST ⊆ concrete ⊆ MAY` is maintained by
/// every operation, so an access can never be classified Always-Hit and
/// Always-Miss at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiState {
    unified_l1: bool,
    l1i: Option<AbstractCache>,
    l1d: Option<AbstractCache>,
    l2: Option<AbstractCache>,
    l1i_may: Option<MayCache>,
    l1d_may: Option<MayCache>,
    /// Provably-dirty lines of the store-absorbing write-back level
    /// (`None` on all-write-through machines — the write-through path
    /// carries no extra state and stays byte-identical). Invariant:
    /// `dirty ⊆` the absorb level's MUST state — see [`crate::dirty`].
    dirty: Option<DirtyBound>,
    /// Whether `dirty` tracks the L2 (write-back L2 behind a
    /// write-through or absent L1D) instead of the data-serving L1.
    dirty_on_l2: bool,
}

impl MultiState {
    fn with_may(ctx: &MultiCtx, may: impl Fn(&CacheConfig) -> MayCache) -> MultiState {
        let h = ctx.hierarchy;
        let unified = h.l1_unified();
        let l1i = h.l1_for(true);
        let l1d = if unified { None } else { h.l1_for(false) };
        let (dirty, dirty_on_l2) = match h.store_absorb() {
            StoreAbsorb::Main => (None, false),
            StoreAbsorb::L1 => (h.l1_for(false).map(DirtyBound::new), false),
            StoreAbsorb::L2 => (h.l2.as_ref().map(DirtyBound::new), true),
        };
        MultiState {
            unified_l1: unified,
            l1i: l1i.map(AbstractCache::top),
            l1d: l1d.map(AbstractCache::top),
            l2: h.l2.as_ref().map(AbstractCache::top),
            l1i_may: ctx.may_analysis.then(|| l1i.map(&may)).flatten(),
            l1d_may: ctx.may_analysis.then(|| l1d.map(&may)).flatten(),
            dirty,
            dirty_on_l2,
        }
    }

    /// Re-establishes the `dirty ⊆ MUST` invariant after any operation
    /// that may have evicted lines from the absorb level's MUST state
    /// (no-op on write-through machines).
    fn prune_dirty(&mut self) {
        let MultiState {
            unified_l1,
            l1i,
            l1d,
            l2,
            dirty,
            dirty_on_l2,
            ..
        } = self;
        let Some(d) = dirty.as_mut() else { return };
        let must = if *dirty_on_l2 {
            l2.as_ref()
        } else if *unified_l1 {
            l1i.as_ref()
        } else {
            l1d.as_ref()
        };
        match must {
            Some(m) => d.prune(m),
            None => d.clear(),
        }
    }

    /// The conservative state: nothing guaranteed at any level, anything
    /// possibly cached. Safe as the entry state of any context; used for
    /// functions without recorded callers and as the fixpoint's defensive
    /// fallback.
    pub fn top(ctx: &MultiCtx) -> MultiState {
        MultiState::with_may(ctx, MayCache::top)
    }

    /// The boot state: nothing guaranteed *and* nothing possibly cached —
    /// the state of the hardware at reset, where every first access is a
    /// provable Always-Miss. The cold-start entry state of the program's
    /// entry function.
    pub fn cold(ctx: &MultiCtx) -> MultiState {
        MultiState::with_may(ctx, MayCache::cold)
    }

    fn l1_mut(&mut self, fetch: bool) -> Option<&mut AbstractCache> {
        if fetch || self.unified_l1 {
            self.l1i.as_mut()
        } else {
            self.l1d.as_mut()
        }
    }

    fn l1_may_mut(&mut self, fetch: bool) -> Option<&mut MayCache> {
        if fetch || self.unified_l1 {
            self.l1i_may.as_mut()
        } else {
            self.l1d_may.as_mut()
        }
    }

    /// Join (control-flow merge): per-level MUST intersection with maximum
    /// age, MAY union with minimum age.
    pub fn join(&self, other: &MultiState) -> MultiState {
        let mut out = self.clone();
        out.join_into(other);
        out
    }

    /// In-place join `self ← self ⊓ other`, level by level; returns whether
    /// `self` changed. Each MUST level's [`AbstractCache::join_into`] only
    /// touches sets that still guarantee something, and each MAY level's
    /// [`MayCache::join_into`] skips sets already widened to top, so
    /// merges after a clobber are near-free.
    pub fn join_into(&mut self, other: &MultiState) -> bool {
        fn j(a: &mut Option<AbstractCache>, b: &Option<AbstractCache>) -> bool {
            match (a, b) {
                (Some(a), Some(b)) => a.join_into(b),
                _ => false,
            }
        }
        fn jm(a: &mut Option<MayCache>, b: &Option<MayCache>) -> bool {
            match (a, b) {
                (Some(a), Some(b)) => a.join_into(b),
                _ => false,
            }
        }
        let mut changed = j(&mut self.l1i, &other.l1i);
        changed |= j(&mut self.l1d, &other.l1d);
        changed |= j(&mut self.l2, &other.l2);
        changed |= jm(&mut self.l1i_may, &other.l1i_may);
        changed |= jm(&mut self.l1d_may, &other.l1d_may);
        // Dirty proofs merge by intersection (dirty on every path); the
        // MUST join only kept lines guaranteed on both sides, so the
        // subset invariant survives without a prune.
        if let (Some(a), Some(b)) = (&mut self.dirty, &other.dirty) {
            changed |= a.join_into(b);
        }
        changed
    }

    /// The function-call clobber: the callee may touch anything at every
    /// level, so MUST guarantees are dropped (nothing certain) *and* MAY
    /// impossibilities are dropped (anything possible). The fallback when
    /// no [`CallSummary`] is available for the callee.
    pub fn clobber(&mut self) {
        for s in [&mut self.l1i, &mut self.l1d, &mut self.l2]
            .into_iter()
            .flatten()
        {
            s.clear();
        }
        for s in [&mut self.l1i_may, &mut self.l1d_may].into_iter().flatten() {
            s.make_top();
        }
        if let Some(d) = &mut self.dirty {
            d.clear();
        }
    }

    /// Applies one callee's summarized worst-case effect in place of the
    /// clobber: per level, MUST guarantees survive aged by the callee's
    /// possible footprint and gain the callee's own exit guarantees, and
    /// MAY candidates age by the callee's definite accesses before its
    /// possible footprint is unioned in (see
    /// [`AbstractCache::apply_call`] / [`MayCache::apply_call`]).
    pub fn apply_call(&mut self, summary: &CallSummary, ctx: &MultiCtx) {
        let l1i_lru = ctx.l1_lru(true);
        let l1d_lru = ctx.l1_lru(false);
        let l2_lru = ctx.l2_lru();
        fn must(
            state: &mut Option<AbstractCache>,
            interf: &Option<Interference>,
            exit: &Option<AbstractCache>,
            lru: bool,
        ) {
            match (state, interf) {
                (Some(st), Some(i)) => st.apply_call(&i.footprint, exit.as_ref(), lru),
                (Some(st), None) => st.clear(),
                _ => {}
            }
        }
        fn may(state: &mut Option<MayCache>, interf: &Option<Interference>, lru: bool) {
            match (state, interf) {
                (Some(m), Some(i)) => m.apply_call(&i.definite, &i.footprint, lru),
                (Some(m), None) => m.make_top(),
                _ => {}
            }
        }
        // A dirty proof survives the call only if the line was provably
        // never evicted *inside* the callee. Residency in the post-call
        // MUST state is not enough: the exit-guarantee union can
        // re-establish a line the callee evicted (writing the dirty
        // victim back) and cleanly reloaded. Prune against the
        // aged-only survival state — footprint interference, no exit
        // union — before the full call effect is applied.
        if let Some(d) = &mut self.dirty {
            let (state, interf, lru) = if self.dirty_on_l2 {
                (&self.l2, &summary.l2, l2_lru)
            } else if self.unified_l1 {
                (&self.l1i, &summary.l1i, l1i_lru)
            } else {
                (&self.l1d, &summary.l1d, l1d_lru)
            };
            match (state, interf) {
                (Some(st), Some(i)) => {
                    let mut survived = st.clone();
                    survived.apply_call(&i.footprint, None, lru);
                    d.prune(&survived);
                }
                _ => d.clear(),
            }
        }
        must(&mut self.l1i, &summary.l1i, &summary.exit.l1i, l1i_lru);
        must(&mut self.l1d, &summary.l1d, &summary.exit.l1d, l1d_lru);
        must(&mut self.l2, &summary.l2, &summary.exit.l2, l2_lru);
        may(&mut self.l1i_may, &summary.l1i, l1i_lru);
        may(&mut self.l1d_may, &summary.l1d, l1d_lru);
        // Re-establish `dirty ⊆ MUST` against the final post-call state
        // (the surviving proofs are a subset of the aged lines, which the
        // exit union only extends, so this cannot resurrect anything).
        self.prune_dirty();
    }
}

/// Per-level interference record of one function (transitively including
/// its callees), the heart of a [`CallSummary`]:
///
/// * `footprint` — every line the function *may* load into this level
///   (its code, its exactly-addressed reads, the lines of its ranged
///   reads; widened to top per set when a range is unbounded). An upper
///   bound on the damage the call can do to the caller's MUST state, and
///   on the possibilities it adds to the caller's MAY state.
/// * `definite` — lines the function accesses on *every* path (blocks
///   dominating all exits, plus its definitely-called callees'). A lower
///   bound on the aging the call inflicts on the caller's MAY state.
///   Only the L1 levels track it: there is no L2 MAY state to age, so
///   the L2's `definite` set is never populated or consulted.
#[derive(Debug, Clone)]
pub struct Interference {
    footprint: MayCache,
    definite: MayCache,
}

/// The context-independent summary of one function used at its call
/// sites: per-level interference plus the exit MUST states computed from
/// a TOP entry (sound in any calling context because the MUST transfer is
/// monotone — a better entry only adds guarantees).
#[derive(Debug, Clone)]
pub struct CallSummary {
    /// Exit state joined (MUST-intersected) over all exit blocks; only
    /// the MUST components are consulted.
    exit: MultiState,
    /// Interference against the L1 serving fetches (a unified L1's data
    /// traffic lands here too, mirroring the shared tag store).
    l1i: Option<Interference>,
    /// Interference against the data half of a split L1.
    l1d: Option<Interference>,
    /// Interference against the unified L2 (code and data combined).
    l2: Option<Interference>,
    /// The summary's exit fixpoint exhausted its budget and was widened.
    pub widened: bool,
}

/// Builds the [`CallSummary`] of `cfg`. Must be called in call-graph
/// topological order (callees first): `ctx.summaries` has to contain the
/// summaries of every function `cfg` calls, both for the interference
/// accumulation and for the TOP-entry exit fixpoint.
pub fn summarize_function(cfg: &FuncCfg, ctx: &MultiCtx) -> CallSummary {
    let h = ctx.hierarchy;
    let unified = h.l1_unified();
    let mk = |c: &CacheConfig| Interference {
        footprint: MayCache::cold(c),
        definite: MayCache::cold(c),
    };
    let mut l1i = h.l1_for(true).map(mk);
    let mut l1d = if unified {
        None
    } else {
        h.l1_for(false).map(mk)
    };
    let mut l2 = h.l2.as_ref().map(mk);

    // A block is definitely executed when it dominates every exit.
    let idom = crate::loops::dominators(cfg);
    let exits = cfg.exits();
    let definitely_runs = |b: u32| {
        !exits.is_empty()
            && exits
                .iter()
                .all(|&e| crate::loops::dominates(b, e, &idom, cfg.entry))
    };

    {
        // One recorded access updates the serving L1's interference and
        // the L2's: the instruction side, the data side, and the L2 see
        // different subsets of the traffic.
        fn apply(i: &mut Option<Interference>, definite: bool, f: &impl Fn(&mut MayCache)) {
            if let Some(i) = i {
                f(&mut i.footprint);
                if definite {
                    f(&mut i.definite);
                }
            }
        }
        macro_rules! record {
            ($fetch:expr, $definite:expr, $f:expr) => {{
                let f = $f;
                let l1 = if $fetch || unified {
                    &mut l1i
                } else {
                    &mut l1d
                };
                apply(l1, $definite, &f);
                // The L2 has no MAY state, so its definite set would
                // never be read — track the footprint only.
                apply(&mut l2, false, &f);
            }};
        }
        for (baddr, block) in &cfg.blocks {
            let def = definitely_runs(*baddr);
            let mut calls = block.calls.iter();
            for (addr, insn) in &block.insns {
                for off in (0..insn.size()).step_by(2) {
                    let a = addr + off;
                    if ctx.map.region_of(a) == RegionKind::Main {
                        record!(true, def, |m: &mut MayCache| m.add_line(a));
                    }
                }
                for dacc in data_accesses(insn, *addr, ctx.annot) {
                    if dacc.is_write {
                        match ctx.hierarchy.store_absorb() {
                            // All-write-through: no-allocate, writes load
                            // nothing at any level.
                            StoreAbsorb::Main => continue,
                            // A write-back L1D write-allocates: the store
                            // loads lines exactly like a read — fall
                            // through to the shared recording below.
                            StoreAbsorb::L1 => {}
                            // A write-back L2 behind a write-through (or
                            // absent) L1D: only the L2 sees the
                            // write-allocation.
                            StoreAbsorb::L2 => {
                                match dacc.info {
                                    AddrInfo::Exact(a) => {
                                        if ctx.map.region_of(a) == RegionKind::Main {
                                            apply(&mut l2, false, &|m: &mut MayCache| {
                                                m.add_line(a)
                                            });
                                        }
                                    }
                                    AddrInfo::Range { lo, hi } => {
                                        if span_region(ctx.map, lo, hi) != RegionKind::Scratchpad {
                                            apply(&mut l2, false, &|m: &mut MayCache| {
                                                m.weaken_range(lo, hi)
                                            });
                                        }
                                    }
                                    AddrInfo::Stack | AddrInfo::Unknown => {
                                        apply(&mut l2, false, &|m: &mut MayCache| {
                                            m.weaken_range(0, u32::MAX)
                                        });
                                    }
                                }
                                continue;
                            }
                        }
                    }
                    match dacc.info {
                        AddrInfo::Exact(a) => {
                            if ctx.map.region_of(a) == RegionKind::Main {
                                // The access definitely happens and its
                                // line is known, so it both may-loads and
                                // definitely-ages.
                                record!(false, def, |m: &mut MayCache| m.add_line(a));
                            }
                        }
                        AddrInfo::Range { lo, hi } => {
                            if span_region(ctx.map, lo, hi) != RegionKind::Scratchpad {
                                // Any line of the range may be loaded; no
                                // single line is definitely accessed.
                                record!(false, false, |m: &mut MayCache| m.weaken_range(lo, hi));
                            }
                        }
                        AddrInfo::Stack | AddrInfo::Unknown => {
                            record!(false, false, |m: &mut MayCache| m.weaken_range(0, u32::MAX));
                        }
                    }
                }
                if matches!(insn, Insn::Bl { .. }) {
                    let callee = calls.next().expect("calls list matches BL count");
                    let summary = ctx.summaries.and_then(|s| s.get(callee));
                    match summary {
                        Some(s) => {
                            let fold =
                                |mine: &mut Option<Interference>,
                                 theirs: &Option<Interference>,
                                 track_definite: bool| {
                                    if let (Some(a), Some(b)) = (mine, theirs) {
                                        a.footprint.join_into(&b.footprint);
                                        if def && track_definite {
                                            a.definite.join_into(&b.definite);
                                        }
                                    }
                                };
                            fold(&mut l1i, &s.l1i, true);
                            fold(&mut l1d, &s.l1d, true);
                            fold(&mut l2, &s.l2, false);
                        }
                        None => {
                            // Unknown callee: it may load anything.
                            for i in [&mut l1i, &mut l1d, &mut l2].into_iter().flatten() {
                                i.footprint.weaken_range(0, u32::MAX);
                            }
                        }
                    }
                }
            }
        }
    }

    // Exit MUST states from a TOP entry: sound in any calling context.
    let fp = must_fixpoint(cfg, ctx, MultiState::top(ctx));
    let widened = fp.widened;
    let in_states = fp.in_states;
    let mut exit: Option<MultiState> = None;
    for e in &exits {
        let mut s = in_states
            .get(e)
            .cloned()
            .unwrap_or_else(|| MultiState::top(ctx));
        walk_block(&mut s, &cfg.blocks[e], ctx, None, None);
        match &mut exit {
            Some(x) => {
                x.join_into(&s);
            }
            None => exit = Some(s),
        }
    }
    CallSummary {
        exit: exit.unwrap_or_else(|| MultiState::top(ctx)),
        l1i,
        l1d,
        l2,
        widened,
    }
}

/// The [`MemHierarchyConfig`] cost function one access is charged: the
/// walk names it, and [`Price::cycles`] calls it under the configuration
/// being priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Charge {
    /// [`MemHierarchyConfig::l1_hit_cycles`].
    L1Hit,
    /// [`MemHierarchyConfig::l1_miss_l2_hit_cycles`].
    L1MissL2Hit,
    /// [`MemHierarchyConfig::l1_miss_l2_miss_cycles`].
    L1MissL2Miss,
    /// [`MemHierarchyConfig::l1_miss_no_l2_cycles`].
    L1MissNoL2,
    /// [`MemHierarchyConfig::l2_direct_hit_cycles`].
    L2DirectHit,
    /// [`MemHierarchyConfig::l2_direct_miss_cycles`].
    L2DirectMiss,
    /// [`MemHierarchyConfig::bypass_cycles`].
    Bypass,
    /// [`MemHierarchyConfig::worst_read_cycles`].
    WorstRead,
    /// [`MemHierarchyConfig::worst_store_cycles`].
    WorstStore,
    /// [`MemHierarchyConfig::worst_store_writeback_cycles`].
    WorstStoreWriteback,
    /// [`MainMemoryTiming::store_cycles_worst`](spmlab_isa::hierarchy::MainMemoryTiming::store_cycles_worst).
    StoreCyclesWorst,
    /// [`access_cycles_with`].
    Region,
}

/// A price class of the census: the cost function one access is charged
/// and the fetch flag, width and region it is charged with. The walk
/// counts accesses per class and reads no timing; [`Price::cycles`]
/// prices a class under one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Price {
    charge: Charge,
    fetch: bool,
    width: AccessWidth,
    region: RegionKind,
    /// A Not-Classified read may still *hit* its L1 concretely, so its
    /// worst-case charge covers the L1-hit outcome too. Always-Miss and
    /// L1-less accesses have no L1-hit outcome to cover.
    covered: bool,
    /// A Not-Classified read of a line persistent in an enclosing loop:
    /// charged the L1 hit where first-miss persistence is applied, its
    /// loop paying the line's first miss on entry
    /// ([`Persistence::first_misses`]).
    persistent: bool,
}

impl Price {
    /// The class packed into one integer: the census looks classes up
    /// once per access, by this key.
    fn key(&self) -> u16 {
        (self.charge as u16)
            | u16::from(self.fetch) << 4
            | (self.width as u16) << 5
            | (self.region as u16) << 7
            | u16::from(self.covered) << 9
            | u16::from(self.persistent) << 10
    }

    /// A read or store charge on a main-memory access.
    fn of(charge: Charge, fetch: bool, width: AccessWidth) -> Price {
        Price {
            charge,
            fetch,
            width,
            region: RegionKind::Main,
            covered: false,
            persistent: false,
        }
    }

    /// A region-timed access: the scratchpad, MMIO or an uncached path.
    fn region(region: RegionKind, fetch: bool, width: AccessWidth) -> Price {
        Price {
            region,
            ..Price::of(Charge::Region, fetch, width)
        }
    }

    /// The cycles this class costs under `h`; with `persistence`, a
    /// persistent read costs the L1 hit, otherwise its Not-Classified
    /// charge.
    fn cycles(&self, h: &MemHierarchyConfig, persistence: bool) -> u64 {
        let Price {
            charge,
            fetch,
            width,
            region,
            covered,
            persistent,
        } = *self;
        if persistent && persistence {
            return h.l1_hit_cycles(fetch);
        }
        let cycles = match charge {
            Charge::L1Hit => h.l1_hit_cycles(fetch),
            Charge::L1MissL2Hit => h.l1_miss_l2_hit_cycles(fetch),
            Charge::L1MissL2Miss => h.l1_miss_l2_miss_cycles(fetch),
            Charge::L1MissNoL2 => h.l1_miss_no_l2_cycles(fetch),
            Charge::L2DirectHit => h.l2_direct_hit_cycles(),
            Charge::L2DirectMiss => h.l2_direct_miss_cycles(),
            Charge::Bypass => h.bypass_cycles(width),
            Charge::WorstRead => h.worst_read_cycles(fetch, width),
            Charge::WorstStore => h.worst_store_cycles(width),
            Charge::WorstStoreWriteback => h.worst_store_writeback_cycles(),
            Charge::StoreCyclesWorst => h.main.store_cycles_worst(width),
            Charge::Region => access_cycles_with(region, width, &h.main),
        };
        if covered {
            cycles.max(h.l1_hit_cycles(fetch))
        } else {
            cycles
        }
    }
}

/// The latency-free record of a run of block walks: the price classes
/// they charged, each once, and per block the cycles no memory timing
/// changes and how many accesses the walk charged each class. A block's
/// cost under a configuration is its fixed cycles, each count times its
/// class's price, and its callees' bounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Census {
    /// The index space of `counts`.
    classes: Vec<Price>,
    /// Each class's [key](Price::key), by index.
    keys: Vec<u16>,
    /// Per block walked: its fixed cycles (one issue cycle per
    /// instruction plus its worst extra cycles) and where its counts end
    /// in `counts`.
    blocks: Vec<(u64, u32)>,
    /// (class index, accesses charged), block after block.
    counts: Vec<(u32, u32)>,
}

impl Census {
    /// The number of blocks walked.
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    /// The index of `price`, recorded on first sight.
    fn class(&mut self, price: Price) -> u32 {
        let key = price.key();
        match self.keys.iter().position(|&k| k == key) {
            Some(i) => i as u32,
            None => {
                self.classes.push(price);
                self.keys.push(key);
                (self.classes.len() - 1) as u32
            }
        }
    }

    /// Every class's cycles under `h`, by index (see [`Price::cycles`]).
    pub(crate) fn prices(&self, h: &MemHierarchyConfig, persistence: bool) -> Vec<u64> {
        self.classes
            .iter()
            .map(|p| p.cycles(h, persistence))
            .collect()
    }

    /// The cycles of the blocks walked in `walked`, in walk order, under
    /// `prices` (from [`Census::prices`]): `blocks` are those blocks, in
    /// the same order, whose `BL` targets are costed at their bounds in
    /// `callee_wcet`, 0 where none is recorded.
    pub(crate) fn block_costs<'b>(
        &self,
        walked: Range<usize>,
        prices: &[u64],
        blocks: impl IntoIterator<Item = &'b BasicBlock>,
        callee_wcet: &BTreeMap<u32, u64>,
    ) -> Vec<u64> {
        let mut start = match walked.start {
            0 => 0,
            i => self.blocks[i - 1].1 as usize,
        };
        self.blocks[walked]
            .iter()
            .zip(blocks)
            .map(|(&(fixed, end), block)| {
                let counts = &self.counts[start..end as usize];
                start = end as usize;
                let accesses: u64 = counts
                    .iter()
                    .map(|&(class, n)| u64::from(n) * prices[class as usize])
                    .sum();
                let calls: u64 = block
                    .calls
                    .iter()
                    .map(|c| callee_wcet.get(c).copied().unwrap_or(0))
                    .sum();
                fixed + accesses + calls
            })
            .collect()
    }
}

/// Census-walk accumulator; `None` during the fixpoint transfer.
struct CensusAcc<'a> {
    census: &'a mut Census,
    /// Where the walked block's counts start in `census.counts`.
    start: usize,
    /// The walked block's fixed cycles.
    fixed: u64,
    stats: &'a mut ClassifyStats,
    classification: &'a mut Classification,
    /// The function's first-miss persistence, when modelled.
    persistence: Option<&'a mut Persistence>,
    /// Start address of the block being walked.
    block: u32,
}

impl CensusAcc<'_> {
    /// Counts one access charged `price`.
    fn count(&mut self, price: Price) {
        let class = self.census.class(price);
        let counts = &mut self.census.counts;
        match counts[self.start..].iter_mut().find(|(c, _)| *c == class) {
            Some((_, n)) => *n += 1,
            None => counts.push((class, 1)),
        }
    }

    /// Counts one classified exact-address read under `price` and in the
    /// stats of its classification. A Not-Classified read of a line that
    /// is persistent in an enclosing loop is counted persistent instead.
    fn charge_read(
        &mut self,
        cls: ReadClass,
        price: Price,
        addr: u32,
        fetch: bool,
        ctx: &MultiCtx,
    ) {
        let s = &mut *self.stats;
        let (hits, always_miss, unclassified) = if fetch {
            (
                &mut s.fetch_hits,
                &mut s.fetch_always_miss,
                &mut s.fetch_unclassified,
            )
        } else {
            (
                &mut s.data_hits,
                &mut s.data_always_miss,
                &mut s.data_unclassified,
            )
        };
        let l2_hit = match cls {
            ReadClass::L1Hit => {
                *hits += 1;
                false
            }
            ReadClass::L1Miss { l2_hit } => {
                *always_miss += 1;
                l2_hit
            }
            ReadClass::Unclassified { l2_hit } => {
                if let Some(p) = self.persistence.as_deref_mut() {
                    if p.charge(addr, self.block) {
                        s.persistent += 1;
                        self.count(Price {
                            persistent: true,
                            ..price
                        });
                        return;
                    }
                }
                *unclassified += 1;
                l2_hit
            }
            ReadClass::NoL1 { l2_hit } => {
                if !l2_hit && ctx.hierarchy.l2.is_some() {
                    *unclassified += 1;
                }
                l2_hit
            }
        };
        if l2_hit {
            s.l2_hits += 1;
        }
        self.count(price);
    }
}

/// The cache access classification (CAC) of one read with respect to the
/// L2 — which update and which cost path the L2 consultation takes. The
/// fourth CAC value, `N` (never accesses the L2), corresponds to an L1
/// Always-Hit and short-circuits before [`l2_read`] is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2Cac {
    /// `A` with no L1 in the access's path: the L2 MUST state takes the
    /// certain update and hits are charged the direct L2 cost.
    Direct,
    /// `A` behind an L1 **Always-Miss** (the Hardy–Puaut filter): the
    /// access certainly continues past its L1, so the L2 takes the certain
    /// update too, and the charge is the L1-miss cost path — with no need
    /// to cover the (impossible) L1-hit outcome.
    AlwaysAfterL1Miss,
    /// `U`: the access was Not-Classified at L1 and reaches the L2 only on
    /// the (undecidable) L1 miss. The L2 MUST state takes the uncertain
    /// update `join(s, update(s))` — sound whether or not the access
    /// occurs — a hit is classifiable only when the line was guaranteed in
    /// L2 *before* the access, and the worst-case charge must also cover
    /// the concrete L1-hit outcome (`hit_latency` is configurable and may
    /// exceed the miss-path cost).
    Uncertain,
}

/// One exact-address read continuing past the L1: returns the price class
/// to charge and whether the L2 hit is *guaranteed* (see [`L2Cac`] for the
/// per-classification semantics).
fn l2_read(
    state: &mut MultiState,
    addr: u32,
    fetch: bool,
    width: AccessWidth,
    cac: L2Cac,
    ctx: &MultiCtx,
) -> (Price, bool) {
    let (charge, hit) = match &mut state.l2 {
        Some(l2s) => {
            let lru = ctx.l2_lru();
            let hit = match cac {
                L2Cac::Direct | L2Cac::AlwaysAfterL1Miss => l2s.access_read_exact(addr, lru),
                L2Cac::Uncertain => l2s.access_read_uncertain(addr, lru),
            };
            let hit = hit && ctx.l2_analysis;
            let charge = match (cac, hit) {
                (L2Cac::Direct, true) => Charge::L2DirectHit,
                (L2Cac::Direct, false) => Charge::L2DirectMiss,
                (_, true) => Charge::L1MissL2Hit,
                (_, false) => Charge::L1MissL2Miss,
            };
            (charge, hit)
        }
        None => {
            let charge = match cac {
                L2Cac::Direct => Charge::Bypass,
                _ => Charge::L1MissNoL2,
            };
            (charge, false)
        }
    };
    let price = Price {
        covered: cac == L2Cac::Uncertain,
        ..Price::of(charge, fetch, width)
    };
    (price, hit)
}

/// The classification of one exact-address main-memory read.
#[derive(Debug, Clone, Copy)]
enum ReadClass {
    /// CHMC Always-Hit at the L1 (the L2's CAC is `N`).
    L1Hit,
    /// CHMC Always-Miss at the L1 (MAY proof; CAC `A` at the L2).
    L1Miss { l2_hit: bool },
    /// CHMC Not-Classified at the L1 (CAC `U` at the L2).
    Unclassified { l2_hit: bool },
    /// No L1 in the path (CAC `A`, direct consultation).
    NoL1 { l2_hit: bool },
}

/// Classifies and applies one exact-address read against the product
/// state: the L1 MUST and MAY states both take the access (it definitely
/// occurs at the L1), then the L2 is consulted per the resulting CAC.
fn exact_read(
    state: &mut MultiState,
    addr: u32,
    fetch: bool,
    width: AccessWidth,
    ctx: &MultiCtx,
) -> (ReadClass, Price) {
    let lru = ctx.l1_lru(fetch);
    let ah = state
        .l1_mut(fetch)
        .map(|l1s| l1s.access_read_exact(addr, lru));
    let may_hit = state
        .l1_may_mut(fetch)
        .map(|m| m.access_read_exact(addr, lru));
    let out = match ah {
        None => {
            let (price, l2_hit) = l2_read(state, addr, fetch, width, L2Cac::Direct, ctx);
            (ReadClass::NoL1 { l2_hit }, price)
        }
        Some(true) => (ReadClass::L1Hit, Price::of(Charge::L1Hit, fetch, width)),
        Some(false) if may_hit == Some(false) => {
            let (price, l2_hit) = l2_read(state, addr, fetch, width, L2Cac::AlwaysAfterL1Miss, ctx);
            (ReadClass::L1Miss { l2_hit }, price)
        }
        Some(false) => {
            let (price, l2_hit) = l2_read(state, addr, fetch, width, L2Cac::Uncertain, ctx);
            (ReadClass::Unclassified { l2_hit }, price)
        }
    };
    // The access may have aged lines out of the absorb level's MUST state
    // (a unified write-back L1 loses dirty data lines to fetch fills too).
    state.prune_dirty();
    out
}

/// Per-instruction classification flags, accumulated over every access of
/// one kind (all halfword fetches, or all data reads) so an instruction
/// address enters a [`Classification`] set only when *every* such access
/// carries the proof.
struct InsnFlags {
    any: bool,
    all_hit: bool,
    all_am: bool,
    /// Some access may consult the L2.
    l2_any: bool,
    /// Every L2-consulting access is guaranteed to hit there.
    l2_all_hit: bool,
}

impl InsnFlags {
    fn new() -> InsnFlags {
        InsnFlags {
            any: false,
            all_hit: true,
            all_am: true,
            l2_any: false,
            l2_all_hit: true,
        }
    }

    /// Folds one classified main-memory read in.
    fn record(&mut self, cls: ReadClass, has_l2: bool) {
        self.any = true;
        let l2 = |flags: &mut InsnFlags, hit: bool| {
            if has_l2 {
                flags.l2_any = true;
                flags.l2_all_hit &= hit;
            }
        };
        match cls {
            ReadClass::L1Hit => self.all_am = false,
            ReadClass::L1Miss { l2_hit } => {
                self.all_hit = false;
                l2(self, l2_hit);
            }
            ReadClass::Unclassified { l2_hit } => {
                self.all_hit = false;
                self.all_am = false;
                l2(self, l2_hit);
            }
            ReadClass::NoL1 { l2_hit } => {
                // A guaranteed direct L2 hit still counts as "always hit"
                // for the first level that serves the access.
                self.all_hit &= l2_hit;
                self.all_am = false;
                l2(self, l2_hit);
            }
        }
    }

    /// Folds an access outside the classified path (non-main region, or a
    /// range/unknown address): no proof of any kind.
    fn record_unproven(&mut self) {
        self.any = true;
        self.all_hit = false;
        self.all_am = false;
        self.l2_any = true;
        self.l2_all_hit = false;
    }
}

/// Walks one block, updating the product state; with `acc`, also
/// counts the price class of every access it charges (the block's
/// census) and records per-address classifications; with
/// `call_sink`, joins the abstract state at every call site into the
/// callee's entry-state accumulator (the interprocedural propagation
/// pass). Using a single walker for every pass guarantees they can never
/// diverge.
fn walk_block(
    state: &mut MultiState,
    block: &BasicBlock,
    ctx: &MultiCtx,
    mut acc: Option<&mut CensusAcc>,
    mut call_sink: Option<&mut BTreeMap<u32, MultiState>>,
) {
    let h = ctx.hierarchy;
    let mut calls = block.calls.iter();
    for (addr, insn) in &block.insns {
        if let Some(a) = acc.as_deref_mut() {
            a.fixed += 1 + insn.worst_extra_cycles();
        }
        // Instruction fetches: one 16-bit access per halfword.
        let mut fetch_flags = InsnFlags::new();
        for off in (0..insn.size()).step_by(2) {
            let a = addr + off;
            let region = ctx.map.region_of(a);
            if region != RegionKind::Main {
                // Scratchpad-resident code bypasses the caches entirely:
                // no L1 outcome, no L2 consultation, region-timed.
                fetch_flags.any = true;
                fetch_flags.all_hit = false;
                fetch_flags.all_am = false;
                if let Some(c) = acc.as_deref_mut() {
                    c.count(Price::region(region, true, AccessWidth::Half));
                }
                continue;
            }
            let (cls, price) = exact_read(state, a, true, AccessWidth::Half, ctx);
            fetch_flags.record(cls, h.l2.is_some());
            if let Some(c) = acc.as_deref_mut() {
                c.charge_read(cls, price, a, true, ctx);
            }
        }
        if let Some(c) = acc.as_deref_mut() {
            if fetch_flags.any {
                if fetch_flags.all_hit {
                    c.classification.fetch_always_hit.insert(*addr);
                }
                if fetch_flags.all_am {
                    c.classification.fetch_l1_always_miss.insert(*addr);
                }
            }
            if fetch_flags.l2_any && fetch_flags.l2_all_hit {
                c.classification.fetch_l2_always_hit.insert(*addr);
            }
        }
        // Data accesses.
        let mut data_flags = InsnFlags::new();
        for dacc in data_accesses(insn, *addr, ctx.annot) {
            walk_data_access(state, &dacc, ctx, &mut acc, &mut data_flags);
        }
        if let Some(c) = acc.as_deref_mut() {
            if data_flags.any {
                if data_flags.all_hit {
                    c.classification.data_always_hit.insert(*addr);
                }
                if data_flags.all_am {
                    c.classification.data_l1_always_miss.insert(*addr);
                }
            }
            if data_flags.l2_any && data_flags.l2_all_hit {
                c.classification.data_l2_always_hit.insert(*addr);
            }
        }
        // Calls: record the pre-call state for the callee's entry, then
        // apply the callee's summarized interference (or clobber when no
        // summary is available — the callee may touch anything). The
        // callee's bound is priced from the block's callee list.
        if matches!(insn, Insn::Bl { .. }) {
            let callee = calls.next().expect("calls list matches BL count");
            if let Some(sink) = call_sink.as_deref_mut() {
                match sink.get_mut(callee) {
                    Some(e) => {
                        e.join_into(state);
                    }
                    None => {
                        sink.insert(*callee, state.clone());
                    }
                }
            }
            match ctx.summaries.and_then(|s| s.get(callee)) {
                Some(summary) => state.apply_call(summary, ctx),
                None => state.clobber(),
            }
        }
    }
}

fn walk_data_access(
    state: &mut MultiState,
    dacc: &DataAccess,
    ctx: &MultiCtx,
    acc: &mut Option<&mut CensusAcc>,
    flags: &mut InsnFlags,
) {
    let h = ctx.hierarchy;
    if dacc.is_write {
        let region = match dacc.info {
            AddrInfo::Exact(a) => ctx.map.region_of(a),
            AddrInfo::Range { lo, hi } => span_region(ctx.map, lo, hi),
            AddrInfo::Stack | AddrInfo::Unknown => RegionKind::Main,
        };
        let absorb = h.store_absorb();
        if region != RegionKind::Main || absorb == StoreAbsorb::Main {
            // All-write-through data path (or a scratchpad/MMIO store):
            // no cache state changes at any level (no-allocate), no
            // recency update, no lookup — writes carry no classification.
            // Byte-identical to the pre-policy analyzer, except that a
            // main-region store may be store-buffered (worst case:
            // 1-cycle accept plus one full drain).
            if let Some(c) = acc.as_deref_mut() {
                c.count(if region == RegionKind::Main {
                    Price::of(Charge::StoreCyclesWorst, false, dacc.width)
                } else {
                    Price::region(region, false, dacc.width)
                });
            }
            return;
        }
        // A write-back level absorbs the store. The charging rule (see
        // `crate::dirty` for the soundness argument): the store pays its
        // own hit-or-write-allocate worst case, plus — unless the target
        // line is provably dirty already — the worst-case write-back of
        // the line it dirties.
        walk_absorbed_store(state, dacc, absorb, ctx, acc);
        return;
    }
    match dacc.info {
        AddrInfo::Exact(a) => {
            let region = ctx.map.region_of(a);
            if region != RegionKind::Main {
                flags.any = true;
                flags.all_hit = false;
                flags.all_am = false;
                if let Some(c) = acc.as_deref_mut() {
                    c.count(Price::region(region, false, dacc.width));
                }
                return;
            }
            let (cls, price) = exact_read(state, a, false, dacc.width, ctx);
            flags.record(cls, h.l2.is_some());
            if let Some(c) = acc.as_deref_mut() {
                c.charge_read(cls, price, a, false, ctx);
            }
        }
        AddrInfo::Range { lo, hi } => {
            let region = span_region(ctx.map, lo, hi);
            if region == RegionKind::Scratchpad {
                flags.any = true;
                flags.all_hit = false;
                flags.all_am = false;
                if let Some(c) = acc.as_deref_mut() {
                    c.count(Price::region(region, false, dacc.width));
                }
                return;
            }
            weaken_all(state, Some((lo, hi)), ctx);
            flags.record_unproven();
            if let Some(c) = acc.as_deref_mut() {
                if h.cached(false) || h.l2.is_some() {
                    c.stats.data_unclassified += 1;
                }
                c.count(Price::of(Charge::WorstRead, false, dacc.width));
            }
        }
        AddrInfo::Stack | AddrInfo::Unknown => {
            weaken_all(state, None, ctx);
            flags.record_unproven();
            if let Some(c) = acc.as_deref_mut() {
                if h.cached(false) || h.l2.is_some() {
                    c.stats.data_unclassified += 1;
                }
                c.count(Price::of(Charge::WorstRead, false, dacc.width));
            }
        }
    }
}

/// One store absorbed by a write-back level (`absorb` is [`StoreAbsorb::L1`]
/// or [`StoreAbsorb::L2`]; the all-write-through case never reaches here).
/// Applies the write-allocate state updates and — in census walks — counts
/// the charge-at-store rule of [`crate::dirty`].
fn walk_absorbed_store(
    state: &mut MultiState,
    dacc: &DataAccess,
    absorb: StoreAbsorb,
    ctx: &MultiCtx,
    acc: &mut Option<&mut CensusAcc>,
) {
    match dacc.info {
        AddrInfo::Exact(a) => {
            let already_dirty = state.dirty.as_ref().is_some_and(|d| d.is_dirty(a));
            let price = match absorb {
                StoreAbsorb::L1 => {
                    // Write-allocate makes the store behave like a read at
                    // every level it can touch: the L1 MUST/MAY states take
                    // the access, the L2 is consulted per the induced CAC,
                    // and hit/fill cost the read-path constants
                    // ([`MemHierarchyConfig::worst_store_cycles`] is the
                    // worst case of exactly this path).
                    exact_read(state, a, false, dacc.width, ctx).1
                }
                _ => {
                    // A write-through (or absent) L1D forwards the store
                    // untouched — no-allocate means its tag store never
                    // changes — and the store *certainly* reaches the
                    // write-back L2: CAC `A`, direct L2 costs, certain
                    // MUST update.
                    let (price, _) = l2_read(state, a, false, dacc.width, L2Cac::Direct, ctx);
                    state.prune_dirty();
                    price
                }
            };
            // The exact access left the line guaranteed present in the
            // absorb level (MUST insertion at age 0) — and now dirty.
            if let Some(d) = state.dirty.as_mut() {
                d.mark(a);
            }
            if let Some(c) = acc.as_deref_mut() {
                c.count(price);
                if already_dirty {
                    // The line was provably dirty on every path: the store
                    // that began this dirty episode already paid for its
                    // eventual eviction.
                    c.stats.store_always_dirty += 1;
                } else {
                    c.stats.store_write_backs += 1;
                    c.count(Price::of(Charge::WorstStoreWriteback, false, dacc.width));
                }
            }
        }
        AddrInfo::Range { .. } | AddrInfo::Stack | AddrInfo::Unknown => {
            // The store may write-allocate any line of the range: weaken
            // the data path's MUST/MAY states (which also prunes the
            // dirty proofs), charge the worst store path plus the
            // write-back obligation.
            let range = match dacc.info {
                AddrInfo::Range { lo, hi } => Some((lo, hi)),
                _ => None,
            };
            weaken_all(state, range, ctx);
            if let Some(c) = acc.as_deref_mut() {
                c.stats.store_write_backs += 1;
                c.count(Price::of(Charge::WorstStore, false, dacc.width));
                c.count(Price::of(Charge::WorstStoreWriteback, false, dacc.width));
            }
        }
    }
}

/// Weakens the data-serving L1 (MUST and MAY) and the L2 for a read
/// somewhere in `range` (`None` = anywhere). The access may or may not
/// reach each level; aging/clearing the MUST states and widening the MAY
/// sets to top are sound either way.
fn weaken_all(state: &mut MultiState, range: Option<(u32, u32)>, ctx: &MultiCtx) {
    let (lo, hi) = range.unwrap_or((0, u32::MAX));
    let l1_lru = ctx.l1_lru(false);
    if let Some(l1s) = state.l1_mut(false) {
        l1s.weaken_range(lo, hi, l1_lru);
    }
    if let Some(l1m) = state.l1_may_mut(false) {
        // The unknown line itself may now be cached anywhere in the range.
        l1m.weaken_range(lo, hi);
    }
    let l2_lru = ctx.l2_lru();
    if let Some(l2s) = &mut state.l2 {
        l2s.weaken_range(lo, hi, l2_lru);
    }
    state.prune_dirty();
}

/// MUST/MAY-analysis fixpoint over the product state, starting the
/// function entry from `entry`: in-state per block.
///
/// Pass [`MultiState::cold`] for the program entry (cold-start MAY),
/// the caller-joined state from [`propagate_entry_states`] for everything
/// reached through calls, and [`MultiState::top`] when nothing is known.
pub fn must_fixpoint(
    cfg: &FuncCfg,
    ctx: &MultiCtx,
    entry: MultiState,
) -> crate::fixpoint::FixpointResult<MultiState> {
    let max_assoc = [
        ctx.hierarchy.l1_for(true),
        ctx.hierarchy.l1_for(false),
        ctx.hierarchy.l2.as_ref(),
    ]
    .into_iter()
    .flatten()
    .map(|c| c.assoc as usize)
    .max()
    .unwrap_or(1);
    crate::fixpoint::must_fixpoint(
        cfg,
        || MultiState::top(ctx),
        entry,
        MultiState::join_into,
        |s, block| walk_block(s, block, ctx, None, None),
        64 * max_assoc,
    )
}

/// The interprocedural propagation pass: walks every block of `cfg` from
/// its converged in-state and joins the abstract state at each `BL` into
/// the callee's entry accumulator. Running it over functions in
/// call-graph reverse-postorder (callers first) yields, for every callee,
/// the join over all its call sites — its fixpoint entry state.
pub fn propagate_entry_states(
    cfg: &FuncCfg,
    in_states: &BTreeMap<u32, MultiState>,
    ctx: &MultiCtx,
    entries: &mut BTreeMap<u32, MultiState>,
) {
    for (baddr, block) in &cfg.blocks {
        if block.calls.is_empty() {
            continue;
        }
        let mut state = in_states
            .get(baddr)
            .cloned()
            .unwrap_or_else(|| MultiState::top(ctx));
        walk_block(&mut state, block, ctx, None, Some(entries));
    }
}

/// Walks one block from its MUST/MAY in-state into `census`: its fixed
/// cycles and an access count per price class. Per-address proofs (always-hit, L1 always-miss, guaranteed
/// L2 hit) are recorded into `classification` and counts by kind into
/// `stats`. With `persistence`, reads of persistent lines are counted as
/// persistent hits ([`Price::cycles`]) and their lines recorded; their
/// loops pay their first misses per entry
/// ([`Persistence::first_misses`]). Persistent reads carry no always-hit
/// proof: they may miss once per loop entry. Reads no timing.
pub(crate) fn census_block(
    block: &BasicBlock,
    mut state: MultiState,
    ctx: &MultiCtx,
    census: &mut Census,
    stats: &mut ClassifyStats,
    classification: &mut Classification,
    persistence: Option<&mut Persistence>,
) {
    let mut acc = CensusAcc {
        start: census.counts.len(),
        census,
        fixed: 0,
        stats,
        classification,
        persistence,
        block: block.start,
    };
    walk_block(&mut state, block, ctx, Some(&mut acc), None);
    let CensusAcc { census, fixed, .. } = acc;
    let end = census.counts.len() as u32;
    census.blocks.push((fixed, end));
}

/// Worst-case cost of one block under the hierarchy model, starting from
/// its MUST/MAY in-state: the block walked once into its census, an
/// access count per price class, then priced under `ctx.hierarchy`,
/// persistent reads at the L1 hit, with `callee_wcet` supplying the WCET
/// bound of each callee. Per-address proofs (always-hit, L1 always-miss,
/// guaranteed L2 hit) are recorded into `classification` and counts by
/// kind into `stats`. The caller charges the first misses of persistent
/// lines per loop entry ([`Persistence::first_misses`]).
pub fn block_cost(
    block: &BasicBlock,
    in_state: &MultiState,
    ctx: &MultiCtx,
    callee_wcet: &BTreeMap<u32, u64>,
    stats: &mut ClassifyStats,
    classification: &mut Classification,
    persistence: Option<&mut Persistence>,
) -> u64 {
    let mut census = Census::default();
    census_block(
        block,
        in_state.clone(),
        ctx,
        &mut census,
        stats,
        classification,
        persistence,
    );
    let prices = census.prices(ctx.hierarchy, true);
    census.block_costs(0..1, &prices, [block], callee_wcet)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_isa::cachecfg::CacheConfig;
    use spmlab_isa::hierarchy::L1;
    use spmlab_isa::insn::Insn;
    use spmlab_isa::reg::{R0, R1};

    const MAIN: u32 = 0x0010_0000;

    fn ctx_parts(h: MemHierarchyConfig) -> (MemHierarchyConfig, MemoryMap, AnnotationSet) {
        (h, MemoryMap::no_spm(), AnnotationSet::new())
    }

    fn ctx<'a>(
        h: &'a MemHierarchyConfig,
        map: &'a MemoryMap,
        annot: &'a AnnotationSet,
    ) -> MultiCtx<'a> {
        MultiCtx {
            hierarchy: h,
            map,
            annot,
            l2_analysis: true,
            may_analysis: true,
            summaries: None,
        }
    }

    fn block(start: u32, insns: Vec<(u32, Insn)>) -> BasicBlock {
        BasicBlock {
            start,
            insns,
            succs: vec![],
            calls: vec![],
            is_exit: false,
        }
    }

    fn cost(b: &BasicBlock, s: &MultiState, ctx: &MultiCtx) -> (u64, Classification) {
        let mut stats = ClassifyStats::default();
        let mut cls = Classification::default();
        let c = block_cost(b, s, ctx, &BTreeMap::new(), &mut stats, &mut cls, None);
        (c, cls)
    }

    #[test]
    fn ah_at_l1_does_not_touch_l2() {
        let (h, map, annot) =
            ctx_parts(MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096)));
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::top(&ctx);
        // First fetch from TOP: NC → reaches L2 (uncertain update), miss.
        let b = block(MAIN, vec![(MAIN, Insn::Nop)]);
        let (c1, _) = cost(&b, &s, &ctx);
        assert_eq!(c1, 1 + h.l1_miss_l2_miss_cycles(true));
        // Walk the state forward, then the same fetch is AH at L1.
        walk_block(&mut s, &b, &ctx, None, None);
        let (c2, cls) = cost(&b, &s, &ctx);
        assert_eq!(c2, 1 + h.l1_hit_cycles(true));
        assert!(cls.fetch_always_hit.contains(&MAIN));
        // The uncertain L2 update never *guarantees* the line in L2.
        assert!(!s.l2.as_ref().unwrap().contains(MAIN));
    }

    #[test]
    fn cold_start_classifies_always_miss_and_certain_l2_update() {
        let (h, map, annot) =
            ctx_parts(MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096)));
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::cold(&ctx);
        let b = block(MAIN, vec![(MAIN, Insn::Nop)]);
        // Cold caches: the first fetch is a provable Always-Miss at L1 —
        // charged without the L1-hit cover — and its *certain* L2 update
        // leaves the line guaranteed in the L2 MUST state.
        let (c1, cls) = cost(&b, &s, &ctx);
        assert_eq!(c1, 1 + h.l1_miss_l2_miss_cycles(true));
        assert!(cls.fetch_l1_always_miss.contains(&MAIN));
        walk_block(&mut s, &b, &ctx, None, None);
        assert!(
            s.l2.as_ref().unwrap().contains(MAIN),
            "AM access updates the L2 with certainty"
        );
    }

    #[test]
    fn l2_hit_classified_behind_an_l1_after_definite_eviction() {
        // The headline Hardy–Puaut scenario: a direct-mapped L1I whose
        // conflict evictions are provable, backed by a large L2. The
        // second touch of a line evicted from L1 is AM at L1 *and*
        // guaranteed in L2 → charged the L2-hit penalty.
        let (h, map, annot) = ctx_parts(
            MemHierarchyConfig::l1_only(CacheConfig::instr_only(64)).with_l2(CacheConfig::l2(4096)),
        );
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::cold(&ctx);
        let line_a = block(MAIN, vec![(MAIN, Insn::Nop)]);
        let conflict = MAIN + 64; // same L1 set (64-byte L1), different L2 set? No: 4096 L2 keeps both.
        let line_b = block(conflict, vec![(conflict, Insn::Nop)]);
        walk_block(&mut s, &line_a, &ctx, None, None); // loads A into L1+L2
        walk_block(&mut s, &line_b, &ctx, None, None); // evicts A from L1, loads B
        let (c, cls) = cost(&line_a, &s, &ctx);
        assert_eq!(
            c,
            1 + h.l1_miss_l2_hit_cycles(true),
            "AM at L1, guaranteed hit at L2"
        );
        assert!(cls.fetch_l1_always_miss.contains(&MAIN));
        assert!(cls.fetch_l2_always_hit.contains(&MAIN));
    }

    #[test]
    fn may_disabled_never_classifies_always_miss() {
        let (h, map, annot) =
            ctx_parts(MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096)));
        let mut c = ctx(&h, &map, &annot);
        c.may_analysis = false;
        let s = MultiState::cold(&c);
        let b = block(MAIN, vec![(MAIN, Insn::Nop)]);
        let (cost_base, cls) = cost(&b, &s, &c);
        assert!(cls.fetch_l1_always_miss.is_empty());
        // The NC charge covers the L1-hit outcome; with the paper's cost
        // model the miss path dominates, so the totals agree here.
        assert_eq!(cost_base, 1 + h.l1_miss_l2_miss_cycles(true));
    }

    #[test]
    fn l2_hit_classification_needs_guaranteed_line() {
        let (h, map, annot) = ctx_parts(
            MemHierarchyConfig::l1_only(CacheConfig::unified(64)).with_l2(CacheConfig::l2(4096)),
        );
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::top(&ctx);
        // Seed the L2 MUST state directly: the line is guaranteed present.
        s.l2.as_mut().unwrap().access_read_exact(MAIN, true);
        assert!(s.l2.as_ref().unwrap().contains(MAIN));
        let b = block(MAIN, vec![(MAIN, Insn::Nop)]);
        let (c, _) = cost(&b, &s, &ctx);
        // NC at L1 (top MAY: may hit) but guaranteed at L2 → the cheaper
        // L2-hit penalty.
        assert_eq!(c, 1 + h.l1_miss_l2_hit_cycles(true));
    }

    #[test]
    fn disabling_l2_analysis_charges_full_miss() {
        let (h, map, annot) = ctx_parts(
            MemHierarchyConfig::l1_only(CacheConfig::unified(64)).with_l2(CacheConfig::l2(4096)),
        );
        let mut s_ctx = ctx(&h, &map, &annot);
        s_ctx.l2_analysis = false;
        let mut s = MultiState::top(&s_ctx);
        s.l2.as_mut().unwrap().access_read_exact(MAIN, true);
        let b = block(MAIN, vec![(MAIN, Insn::Nop)]);
        let (c, _) = cost(&b, &s, &s_ctx);
        assert_eq!(c, 1 + h.l1_miss_l2_miss_cycles(true), "guarantee ignored");
        s_ctx.l2_analysis = true;
        let (c2, _) = cost(&b, &s, &s_ctx);
        assert!(c2 < c, "enabling the L2 analysis can only tighten");
    }

    #[test]
    fn unified_l1_lets_data_evict_code_in_the_abstract() {
        let (h, map, mut annot) = ctx_parts(MemHierarchyConfig::l1_only(CacheConfig::unified(64)));
        // A load with an unknown address may evict any line.
        annot.set_access(MAIN + 2, AccessWidth::Word, AddrInfo::Unknown);
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::cold(&ctx);
        let fetch_only = block(MAIN, vec![(MAIN, Insn::Nop)]);
        walk_block(&mut s, &fetch_only, &ctx, None, None);
        assert!(s.l1i.as_ref().unwrap().contains(MAIN));
        let load = block(
            MAIN + 2,
            vec![(
                MAIN + 2,
                Insn::LdrImm {
                    width: AccessWidth::Word,
                    rd: R0,
                    rn: R1,
                    off: 0,
                },
            )],
        );
        walk_block(&mut s, &load, &ctx, None, None);
        assert!(
            !s.l1i.as_ref().unwrap().contains(MAIN),
            "unknown data access weakens the shared unified MUST state"
        );
        assert!(
            s.l1i_may.as_ref().unwrap().contains(MAIN + 0x40),
            "…and widens the shared MAY state: anything may now be cached"
        );
    }

    #[test]
    fn split_l1_keeps_code_safe_from_data() {
        let (h, map, mut annot) = ctx_parts(MemHierarchyConfig::split_l1(512, 512));
        annot.set_access(MAIN + 2, AccessWidth::Word, AddrInfo::Unknown);
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::cold(&ctx);
        let fetch_only = block(MAIN, vec![(MAIN, Insn::Nop)]);
        walk_block(&mut s, &fetch_only, &ctx, None, None);
        let load = block(
            MAIN + 2,
            vec![(
                MAIN + 2,
                Insn::LdrImm {
                    width: AccessWidth::Word,
                    rd: R0,
                    rn: R1,
                    off: 0,
                },
            )],
        );
        walk_block(&mut s, &load, &ctx, None, None);
        assert!(
            s.l1i.as_ref().unwrap().contains(MAIN),
            "the I-side of a split L1 is immune to data traffic"
        );
        assert!(
            !s.l1i_may.as_ref().unwrap().contains(MAIN + 0x400),
            "…and so is its MAY state"
        );
    }

    #[test]
    fn call_clobber_drops_guarantees_and_impossibilities() {
        let (h, map, annot) =
            ctx_parts(MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096)));
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::cold(&ctx);
        let b = block(MAIN, vec![(MAIN, Insn::Nop)]);
        walk_block(&mut s, &b, &ctx, None, None);
        assert!(s.l1i.as_ref().unwrap().contains(MAIN));
        s.clobber();
        assert!(!s.l1i.as_ref().unwrap().contains(MAIN), "MUST cleared");
        assert!(
            s.l1i_may.as_ref().unwrap().contains(MAIN + 0x4000),
            "MAY topped: anything may be cached after the call"
        );
    }

    #[test]
    fn call_sink_joins_states_over_call_sites() {
        let (h, map, annot) = ctx_parts(MemHierarchyConfig::split_l1(512, 512));
        let ctx = ctx(&h, &map, &annot);
        let callee = MAIN + 0x1000;
        // Two call sites with different pre-call states: one that fetched
        // MAIN, one cold.
        let call = |start: u32| BasicBlock {
            start,
            insns: vec![(start, Insn::Bl { off: 0 })],
            succs: vec![],
            calls: vec![callee],
            is_exit: false,
        };
        let mut entries = BTreeMap::new();
        let mut s1 = MultiState::cold(&ctx);
        let warm = block(MAIN, vec![(MAIN, Insn::Nop)]);
        walk_block(&mut s1, &warm, &ctx, None, None);
        walk_block(&mut s1, &call(MAIN + 0x100), &ctx, None, Some(&mut entries));
        let e1 = entries.get(&callee).unwrap().clone();
        assert!(e1.l1i.as_ref().unwrap().contains(MAIN), "first site: warm");
        let mut s2 = MultiState::cold(&ctx);
        walk_block(&mut s2, &call(MAIN + 0x200), &ctx, None, Some(&mut entries));
        let e2 = entries.get(&callee).unwrap();
        assert!(
            !e2.l1i.as_ref().unwrap().contains(MAIN),
            "second (cold) site removes the MUST guarantee"
        );
        assert!(
            e2.l1i_may.as_ref().unwrap().contains(MAIN),
            "…but the line may still be cached (union)"
        );
    }

    #[test]
    fn ranged_write_does_not_change_state() {
        // Write-through/no-allocate: a store anywhere in a range leaves
        // every abstract cache untouched.
        let (h, map, annot) = ctx_parts(MemHierarchyConfig::l1_only(CacheConfig::unified(64)));
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::top(&ctx);
        exact_read(&mut s, MAIN, false, AccessWidth::Word, &ctx);
        let before = s.clone();
        let store = DataAccess {
            width: AccessWidth::Word,
            info: AddrInfo::Range {
                lo: MAIN,
                hi: MAIN + 0x1000,
            },
            is_write: true,
        };
        walk_data_access(&mut s, &store, &ctx, &mut None, &mut InsnFlags::new());
        assert_eq!(s, before, "writes don't evict (no-allocate)");
        assert!(s.l1i.as_ref().is_some_and(|l1| l1.contains(MAIN)));
    }

    fn str_word(addr: u32) -> (u32, Insn) {
        (
            addr,
            Insn::StrImm {
                width: AccessWidth::Word,
                rd: R0,
                rn: R1,
                off: 0,
            },
        )
    }

    #[test]
    fn absorbed_store_pays_writeback_once() {
        // Write-back L1D, no L2: the first store to a line pays its
        // write-allocate fill plus the write-back obligation; a later
        // store to the provably dirty resident line pays the hit only.
        let h = MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(512)),
                d: Some(CacheConfig::data_only(512).write_back()),
            },
            l2: None,
            main: spmlab_isa::hierarchy::MainMemoryTiming::table1(),
        };
        let map = MemoryMap::no_spm();
        let mut annot = AnnotationSet::new();
        let target = MAIN + 0x800;
        annot.set_access(MAIN, AccessWidth::Word, AddrInfo::Exact(target));
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::cold(&ctx);
        let st = block(MAIN, vec![str_word(MAIN)]);
        let (c1, _) = cost(&st, &s, &ctx);
        // 1 base + AM fetch (17) + AM store write-allocate (17) + the
        // 16-byte line's eventual write-back burst (16).
        assert_eq!(c1, 1 + 17 + 17 + h.worst_store_writeback_cycles());
        assert_eq!(h.worst_store_writeback_cycles(), 16);
        walk_block(&mut s, &st, &ctx, None, None);
        // Second execution: fetch hits, store hits a provably dirty line.
        let (c2, _) = cost(&st, &s, &ctx);
        assert_eq!(c2, 1 + 1 + 1, "resident dirty line owes nothing new");
    }

    #[test]
    fn store_absorbed_by_write_back_l2_skips_the_l1() {
        // Write-through L1D in front of a write-back L2: stores pass the
        // L1 untouched (its MUST state must NOT gain the line) and
        // write-allocate in the L2 with a certain update.
        let h = MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096).write_back());
        let map = MemoryMap::no_spm();
        let mut annot = AnnotationSet::new();
        let target = MAIN + 0x800;
        annot.set_access(MAIN, AccessWidth::Word, AddrInfo::Exact(target));
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::cold(&ctx);
        let st = block(MAIN, vec![str_word(MAIN)]);
        let (c1, _) = cost(&st, &s, &ctx);
        // 1 base + AM fetch (l1-miss→l2-miss = 40) + store write-allocate
        // from main (35) + the 32-byte L2 line's write-back burst (32).
        assert_eq!(c1, 1 + 40 + 35 + 32);
        walk_block(&mut s, &st, &ctx, None, None);
        assert!(
            !s.l1d.as_ref().unwrap().contains(target),
            "a write-through L1D never allocates on stores"
        );
        assert!(
            s.l2.as_ref().unwrap().contains(target),
            "the absorbed store certainly updated the L2 MUST state"
        );
        // Re-execution: fetch AH, store = guaranteed dirty L2 hit.
        let (c2, _) = cost(&st, &s, &ctx);
        assert_eq!(c2, 1 + 1 + h.l2_direct_hit_cycles());
    }

    #[test]
    fn eviction_revokes_the_dirty_proof() {
        let h = MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(512)),
                d: Some(CacheConfig::data_only(512).write_back()),
            },
            l2: None,
            main: spmlab_isa::hierarchy::MainMemoryTiming::table1(),
        };
        let map = MemoryMap::no_spm();
        let mut annot = AnnotationSet::new();
        let target = MAIN + 0x800;
        annot.set_access(MAIN, AccessWidth::Word, AddrInfo::Exact(target));
        // A conflicting load 512 bytes away (same set of the 512 B
        // direct-mapped L1D) definitely evicts the dirty line.
        annot.set_access(MAIN + 2, AccessWidth::Word, AddrInfo::Exact(target + 512));
        annot.set_access(MAIN + 4, AccessWidth::Word, AddrInfo::Exact(target));
        let ctx = ctx(&h, &map, &annot);
        let mut s = MultiState::cold(&ctx);
        let st1 = block(MAIN, vec![str_word(MAIN)]);
        let ld = block(
            MAIN + 2,
            vec![(
                MAIN + 2,
                Insn::LdrImm {
                    width: AccessWidth::Word,
                    rd: R0,
                    rn: R1,
                    off: 0,
                },
            )],
        );
        let st2 = block(MAIN + 4, vec![str_word(MAIN + 4)]);
        walk_block(&mut s, &st1, &ctx, None, None);
        walk_block(&mut s, &ld, &ctx, None, None);
        // The conflict evicted the dirty line: the next store to it pays
        // the full write-allocate plus a fresh write-back obligation
        // (fetch hits — all three instructions share one I-line).
        let (c3, _) = cost(&st2, &s, &ctx);
        assert_eq!(c3, 1 + 1 + 17 + 16);
    }

    #[test]
    fn uncached_hierarchy_costs_region_timing_with_main_model() {
        use spmlab_isa::hierarchy::MainMemoryTiming;
        let (h, map, annot) = ctx_parts(MemHierarchyConfig::uncached_with(MainMemoryTiming::dram(
            10,
        )));
        let ctx = ctx(&h, &map, &annot);
        let s = MultiState::top(&ctx);
        let b = block(MAIN, vec![(MAIN, Insn::Nop)]);
        let (c, _) = cost(&b, &s, &ctx);
        // 1 base + (10 latency + 1 beat × 2) fetch.
        assert_eq!(c, 1 + 12);
    }

    #[test]
    fn repro_dirty_proof_survives_callee_evict_and_reload() {
        use crate::cfg::FuncCfg;
        let h = MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(512)),
                d: Some(CacheConfig::data_only(512).write_back()),
            },
            l2: None,
            main: spmlab_isa::hierarchy::MainMemoryTiming::table1(),
        };
        let map = MemoryMap::no_spm();
        let mut annot = AnnotationSet::new();
        let x = MAIN + 0x800;
        let y = x + 512; // same set of the 512 B direct-mapped L1D
        let callee = MAIN + 0x100;
        annot.set_access(MAIN, AccessWidth::Word, AddrInfo::Exact(x));
        annot.set_access(callee, AccessWidth::Word, AddrInfo::Exact(y));
        annot.set_access(callee + 2, AccessWidth::Word, AddrInfo::Exact(x));
        annot.set_access(MAIN + 4, AccessWidth::Word, AddrInfo::Exact(x));
        let ctx = ctx(&h, &map, &annot);
        // Callee: reads Y (evicting dirty X — this write-back was paid by
        // the caller's first store), then re-reads X (now CLEAN).
        let ld = |pc: u32| {
            (
                pc,
                Insn::LdrImm {
                    width: AccessWidth::Word,
                    rd: R0,
                    rn: R1,
                    off: 0,
                },
            )
        };
        let mut cb = block(callee, vec![ld(callee), ld(callee + 2)]);
        cb.is_exit = true;
        let cfg = FuncCfg {
            name: "f".into(),
            entry: callee,
            blocks: [(callee, cb)].into_iter().collect(),
        };
        let summary = summarize_function(&cfg, &ctx);
        let mut s = MultiState::cold(&ctx);
        // Caller: store X (dirty, pays the write-back obligation)...
        walk_block(&mut s, &block(MAIN, vec![str_word(MAIN)]), &ctx, None, None);
        // ...then the call.
        s.apply_call(&summary, &ctx);
        // Concretely X is now present but CLEAN; the next store to it
        // begins a NEW dirty episode whose eventual eviction must be
        // charged. If the dirty proof wrongly survived, the store costs
        // hit-only (no +16 write-back obligation).
        let st2 = block(MAIN + 4, vec![str_word(MAIN + 4)]);
        let (c, _) = cost(&st2, &s, &ctx);
        let fetch = 1; // same I-line as MAIN, AH after the call summary? (printed)
        println!(
            "cost after call = {c} (hit-only would be {})",
            1 + fetch + 1
        );
        assert!(
            c >= 1 + 1 + h.worst_store_writeback_cycles(),
            "dirty proof survived a callee that may evict and cleanly \
             reload the line: store charged {c}, write-back obligation unpaid"
        );
    }
}
