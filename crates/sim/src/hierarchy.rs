//! Concrete multi-level cache state for the simulator.
//!
//! [`HierarchyCaches`] owns the tag stores of every configured level and
//! routes each main-memory access: L1I or L1D (or a shared unified L1) →
//! unified L2 → main memory. All timing constants come from
//! [`MemHierarchyConfig`] in `spmlab-isa`, the same cost model the WCET
//! analyzer charges — the two sides can therefore never disagree about the
//! machine.
//!
//! Each level carries its own write policy
//! ([`spmlab_isa::cachecfg::WritePolicy`]): write-through levels need no
//! cache storage, only tags, exactly like the paper's single-level
//! machine; write-back levels additionally track dirty bits, stores are
//! absorbed by the first write-back level in the data path
//! ([`MemHierarchyConfig::store_absorb`]), and dirty victims pay a line
//! write-back to the victim's next level at eviction time. Core stores
//! that reach main memory may pass through an optional
//! [`spmlab_isa::hierarchy::StoreBuffer`]. See the README's "Write
//! policies and store buffers" section for the full cost model. An access
//! that has no cache configured for its kind still bypasses the hierarchy
//! entirely.
//!
//! A read or absorbed store is its first-level half (`read_l1`,
//! `write_l1`) then, on an L1 miss, the part below the L1 (`fill_l1`,
//! then `retire_l1_victim` for a dirty victim). The interpreter runs the
//! halves back to back; a staged trace tally runs the first over the
//! whole trace once and the second once per L2 behind it (see
//! `spmlab_sim::trace`, "What a trace's machines share"), so both callers
//! share one model of the levels below the L1. A store costs what the
//! same route charges a read, and every L2 miss, whoever caused it, does
//! its bookkeeping in one place (`HierarchyCaches::l2_fill`).

use crate::cache::{AccessResult, Cache};
use crate::memsys::{AccessKind, MemStats};
use spmlab_isa::hierarchy::{MemHierarchyConfig, StoreAbsorb, L1};
use spmlab_isa::mem::AccessWidth;
use std::collections::VecDeque;

/// Which tag store serves one access kind (resolved once at build time so
/// the per-access path never re-matches the `L1` enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1Pick {
    /// No L1 in this kind's path.
    None,
    /// The single (possibly scope-restricted) L1.
    Unified,
    /// The instruction half of a split L1.
    Instr,
    /// The data half of a split L1.
    Data,
}

/// Precomputed routing and cycle constants for one access kind. All
/// values come from the shared cost model in [`MemHierarchyConfig`]; they
/// are just evaluated once instead of per access.
#[derive(Debug, Clone, Copy)]
struct Route {
    pick: L1Pick,
    /// Cycles when the access hits its L1.
    l1_hit: u64,
    /// Cycles when the access misses L1 and hits the L2.
    l1_miss_l2_hit: u64,
    /// Cycles when the access misses L1 and the L2 (or has no L2).
    l1_miss_worst: u64,
    /// 32-bit words filled into the missing level's line on the path that
    /// talks to main memory: the L2's line when there is an L2.
    fill_words: u64,
    /// Cycles for an L1-less access hitting the L2 directly.
    l2_direct_hit: u64,
    /// Cycles for an L1-less access missing the L2.
    l2_direct_miss: u64,
    /// Cycles per width when no cache sits in the path at all, and of a
    /// store written through to main memory without a store buffer.
    bypass: [u64; 3],
}

/// Precomputed write-path routing and cycle constants — the store-absorb
/// rule plus every write-back transfer cost, all from the shared model in
/// [`MemHierarchyConfig`] (see its `store_absorb` / `worst_store_cycles`
/// helpers for the analyzer's side of the same constants). A store costs
/// what the data route charges a read in its place: an L1 store hit is an
/// L1 hit, a store an L1 absorbs fills on a miss exactly as a data read
/// miss does (see [`HierarchyCaches::fill_l1`]), a store an L2 absorbs
/// hits or misses as an L1-less read does, and a store written through
/// is one main-memory access.
#[derive(Debug, Clone, Copy)]
struct WriteRoute {
    absorb: StoreAbsorb,
    /// Dirty-victim write-back transfer cycles out of the L1 / the L2.
    l1_wb: u64,
    l2_wb: u64,
    /// Whether the L2 absorbs written-back L1 lines (write-back L2).
    l2_accepts_lines: bool,
    /// Whether any cache level sits in the data path (the write-through
    /// counter's condition, unchanged from the all-write-through model).
    data_cached: bool,
}

/// Concrete store-buffer state: completion times of the in-flight
/// entries, drained front-to-back. `clock` enforces that successive
/// stores observe a time at least one cycle past the previous store's
/// accept-plus-stall, which is what bounds any single stall by one drain
/// period (see [`spmlab_isa::hierarchy::StoreBuffer`]).
#[derive(Debug, Clone)]
struct StoreBufferState {
    depth: usize,
    drain: u64,
    clock: u64,
    pending: VecDeque<u64>,
}

impl StoreBufferState {
    fn new(sb: &spmlab_isa::hierarchy::StoreBuffer) -> StoreBufferState {
        StoreBufferState {
            depth: sb.depth as usize,
            drain: sb.drain_cycles,
            clock: 0,
            pending: VecDeque::with_capacity(sb.depth as usize),
        }
    }

    /// Accepts one store at time `now`, returning its cycles (1, plus the
    /// buffer-full stall) and accounting the stall.
    fn push(&mut self, now: u64, stats: &mut MemStats) -> u64 {
        let now = now.max(self.clock);
        while self.pending.front().is_some_and(|&c| c <= now) {
            self.pending.pop_front();
        }
        let mut stall = 0;
        if self.pending.len() >= self.depth {
            let head = self.pending.pop_front().expect("depth >= 1");
            stall = head - now;
        }
        let start = (now + stall).max(self.pending.back().copied().unwrap_or(0));
        self.pending.push_back(start + self.drain);
        stats.store_buffer_stalls += stall;
        self.clock = now + stall + 1;
        1 + stall
    }
}

/// Per-level outcome of one read, alongside its cycle charge.
///
/// `first_miss` reports the outcome at the first cache level in the
/// access's path (`None` when the access bypassed the caches) — the
/// signal the always-hit/always-miss classification checks compare
/// against. `l2_hit` is `Some` exactly when the access consulted the
/// unified L2 (an L1 miss, or L1-less traffic with an L2 configured) —
/// the signal for the guaranteed-L2-hit classification checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadOutcome {
    /// First-level result: `Some(true)` = miss, `Some(false)` = hit,
    /// `None` = no cache in the path.
    pub first_miss: Option<bool>,
    /// L2 result when the access reached the L2.
    pub l2_hit: Option<bool>,
}

impl ReadOutcome {
    /// An access that bypassed every cache.
    pub const BYPASS: ReadOutcome = ReadOutcome {
        first_miss: None,
        l2_hit: None,
    };
}

/// Tag stores for every configured level plus the shared cost model.
#[derive(Debug, Clone)]
pub struct HierarchyCaches {
    cfg: MemHierarchyConfig,
    l1u: Option<Cache>,
    l1i: Option<Cache>,
    l1d: Option<Cache>,
    l2: Option<Cache>,
    fetch_route: Route,
    data_route: Route,
    write_route: WriteRoute,
    store_buffer: Option<StoreBufferState>,
    /// Main-memory transactions so far: every access, burst, fill,
    /// write-back or write-through that paid `main.latency` once. Trace
    /// pricing reads it (see [`HierarchyCaches::main_transactions`]).
    main_transactions: u64,
}

impl HierarchyCaches {
    fn route_for(cfg: &MemHierarchyConfig, fetch: bool) -> Route {
        let pick = match (&cfg.l1, cfg.l1_for(fetch)) {
            (_, None) => L1Pick::None,
            (L1::Unified(_), Some(_)) => L1Pick::Unified,
            (L1::Split { .. }, Some(_)) => {
                if fetch {
                    L1Pick::Instr
                } else {
                    L1Pick::Data
                }
            }
            (L1::None, Some(_)) => unreachable!("l1_for() returned a cache for L1::None"),
        };
        let has_l1 = pick != L1Pick::None;
        let has_l2 = cfg.l2.is_some();
        Route {
            pick,
            l1_hit: if has_l1 { cfg.l1_hit_cycles(fetch) } else { 0 },
            l1_miss_l2_hit: if has_l1 && has_l2 {
                cfg.l1_miss_l2_hit_cycles(fetch)
            } else {
                0
            },
            l1_miss_worst: if has_l1 && has_l2 {
                cfg.l1_miss_l2_miss_cycles(fetch)
            } else if has_l1 {
                cfg.l1_miss_no_l2_cycles(fetch)
            } else {
                0
            },
            fill_words: match (has_l1, has_l2) {
                (true, false) => (cfg.l1_for(fetch).expect("has_l1").line / 4) as u64,
                (_, true) => (cfg.l2.as_ref().expect("has_l2").line / 4) as u64,
                (false, false) => 0,
            },
            l2_direct_hit: if has_l2 {
                cfg.l2_direct_hit_cycles()
            } else {
                0
            },
            l2_direct_miss: if has_l2 {
                cfg.l2_direct_miss_cycles()
            } else {
                0
            },
            bypass: AccessWidth::ALL.map(|w| cfg.bypass_cycles(w)),
        }
    }

    fn write_route_for(cfg: &MemHierarchyConfig) -> WriteRoute {
        let data_l1 = cfg.l1_for(false).is_some();
        let has_l2 = cfg.l2.is_some();
        WriteRoute {
            absorb: cfg.store_absorb(),
            l1_wb: if data_l1 {
                cfg.l1_writeback_cycles()
            } else {
                0
            },
            l2_wb: if has_l2 { cfg.l2_writeback_cycles() } else { 0 },
            l2_accepts_lines: cfg
                .l2
                .as_ref()
                .is_some_and(|c| c.write_policy.is_write_back()),
            data_cached: data_l1 || has_l2,
        }
    }

    /// Builds empty (all-invalid, all-clean) tag stores for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on a machine [`MemHierarchyConfig::validate`] refuses, and
    /// on a size-0 level, which has no tag store ([`Cache::new`]).
    pub fn new(cfg: MemHierarchyConfig) -> HierarchyCaches {
        cfg.validate().expect("a valid memory hierarchy");
        let (l1u, l1i, l1d) = match &cfg.l1 {
            L1::None => (None, None, None),
            L1::Unified(c) => (Some(Cache::new(c.clone())), None, None),
            L1::Split { i, d } => (None, i.clone().map(Cache::new), d.clone().map(Cache::new)),
        };
        let l2 = cfg.l2.clone().map(Cache::new);
        let fetch_route = Self::route_for(&cfg, true);
        let data_route = Self::route_for(&cfg, false);
        let write_route = Self::write_route_for(&cfg);
        let store_buffer = cfg.main.store_buffer.as_ref().map(StoreBufferState::new);
        HierarchyCaches {
            cfg,
            l1u,
            l1i,
            l1d,
            l2,
            fetch_route,
            data_route,
            write_route,
            store_buffer,
            main_transactions: 0,
        }
    }

    /// The shared hierarchy configuration.
    pub fn config(&self) -> &MemHierarchyConfig {
        &self.cfg
    }

    /// Main-memory transactions performed so far. Without a store buffer
    /// every cost that reaches main memory is `latency + beats *
    /// beat_cycles` — one setup latency per transaction — and every
    /// other cost is latency-free, so the cycles of the same access
    /// sequence under latency `L` are the latency-0 cycles plus `L` times
    /// this count. Stores accepted by a store buffer are not counted.
    pub fn main_transactions(&self) -> u64 {
        self.main_transactions
    }

    /// Retires one dirty victim line evicted from the L1: into a
    /// write-back L2 (possibly cascading into an L2 victim's burst to
    /// main), or as a burst straight to main memory when the L2 is
    /// write-through (which forwards the line) or absent. Returns the
    /// transfer's cycles. With [`HierarchyCaches::fill_l1`], the part of
    /// an L1 miss below the L1: the victim retires after the fill.
    pub(crate) fn retire_l1_victim(&mut self, victim: u32, stats: &mut MemStats) -> u64 {
        if !self.write_route.l2_accepts_lines {
            return self.victims_to_main(1, stats);
        }
        let (l1_wb, l2_wb) = (self.write_route.l1_wb, self.write_route.l2_wb);
        stats.dirty_evictions += 1;
        let mut cycles = l1_wb;
        let l2 = self.l2.as_mut().expect("write-back L2 accepts lines");
        if let Some(_victim2) = l2.install_writeback(victim) {
            stats.dirty_evictions += 1;
            stats.write_backs += 1;
            self.main_transactions += 1;
            cycles += l2_wb;
        }
        cycles
    }

    /// Retires `n` dirty L1 victims as bursts straight to main memory, no
    /// write-back L2 taking them, returning their cycles.
    #[inline]
    pub(crate) fn victims_to_main(&mut self, n: u64, stats: &mut MemStats) -> u64 {
        stats.dirty_evictions += n;
        stats.write_backs += n;
        self.main_transactions += n;
        n.saturating_mul(self.write_route.l1_wb)
    }

    /// The part of an L1 miss below the L1: the level below the L1 serving
    /// `fetch` supplies `addr`'s line — for a read or fetch miss, or for a
    /// store miss the data side write-allocates. Returns the miss's
    /// cycles, the L1 lookup included, and the L2's outcome when the L2
    /// was consulted. The interpreter calls it on every L1 miss, and a
    /// staged trace tally on every fill its first level sent down (see
    /// `MemTrace::price`).
    #[inline]
    pub(crate) fn fill_l1(
        &mut self,
        addr: u32,
        fetch: bool,
        stats: &mut MemStats,
    ) -> (u64, Option<bool>) {
        let route = if fetch {
            &self.fetch_route
        } else {
            &self.data_route
        };
        let (l1_miss_l2_hit, l1_miss_worst) = (route.l1_miss_l2_hit, route.l1_miss_worst);
        let Some(l2) = &mut self.l2 else {
            return (self.fills_from_main(fetch, 1, stats), None);
        };
        let r = l2.read(addr);
        if r.hit {
            stats.l2_hits += 1;
            (l1_miss_l2_hit, Some(true))
        } else {
            stats.l2_misses += 1;
            (l1_miss_worst + self.l2_fill(r, stats), Some(false))
        }
    }

    /// The part of an L2 miss below the L2: the line fill from main
    /// memory, one transaction, then the burst that writes back the dirty
    /// L2 victim `r` names, if any. Returns the victim's cycles; the
    /// caller charges the miss itself.
    #[inline]
    fn l2_fill(&mut self, r: AccessResult, stats: &mut MemStats) -> u64 {
        // With an L2, every route fills the L2's line.
        stats.fill_words += self.data_route.fill_words;
        self.main_transactions += 1;
        if r.writeback.is_none() {
            return 0;
        }
        stats.dirty_evictions += 1;
        stats.write_backs += 1;
        self.main_transactions += 1;
        self.write_route.l2_wb
    }

    /// `n` fills of the L1 serving `fetch` straight from main memory, no
    /// L2 between: their cycles.
    #[inline]
    pub(crate) fn fills_from_main(&mut self, fetch: bool, n: u64, stats: &mut MemStats) -> u64 {
        let route = if fetch {
            &self.fetch_route
        } else {
            &self.data_route
        };
        stats.fill_words += n * route.fill_words;
        self.main_transactions += n;
        n.saturating_mul(route.l1_miss_worst)
    }

    /// `n` reads of `width` that no cache serves, or stores of `width`
    /// written through with no store buffer, each one main-memory access:
    /// their cycles.
    #[inline]
    pub(crate) fn bypass(&mut self, width: AccessWidth, n: u64) -> u64 {
        let w = match width {
            AccessWidth::Byte => 0,
            AccessWidth::Half => 1,
            AccessWidth::Word => 2,
        };
        self.main_transactions += n;
        n.saturating_mul(self.data_route.bypass[w])
    }

    /// The first-level half of a read or fetch: the L1 serving `fetch`
    /// looks `addr` up and counts the outcome; `None` when no L1 serves
    /// the kind. On a miss the line is filled into the L1, and the result
    /// names a dirty victim the fill evicted.
    #[inline(always)]
    pub(crate) fn read_l1(
        &mut self,
        addr: u32,
        fetch: bool,
        stats: &mut MemStats,
    ) -> Option<AccessResult> {
        let pick = if fetch {
            self.fetch_route.pick
        } else {
            self.data_route.pick
        };
        let l1 = match pick {
            L1Pick::None => return None,
            L1Pick::Unified => self.l1u.as_mut().expect("route picked unified L1"),
            L1Pick::Instr => self.l1i.as_mut().expect("route picked split L1I"),
            L1Pick::Data => self.l1d.as_mut().expect("route picked split L1D"),
        };
        let r = l1.read(addr);
        if fetch {
            if r.hit {
                stats.l1i_hits += 1;
            } else {
                stats.l1i_misses += 1;
            }
        } else if r.hit {
            stats.l1d_hits += 1;
        } else {
            stats.l1d_misses += 1;
        }
        if r.hit {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
        Some(r)
    }

    /// The first-level half of a store a write-back L1 absorbs: the L1 in
    /// the data path dirties `addr`'s line, write-allocating it on a miss
    /// (whose fill and dirty victim are the part below the L1).
    #[inline]
    pub(crate) fn write_l1(&mut self, addr: u32) -> AccessResult {
        let l1 = match (&mut self.l1u, &mut self.l1d) {
            (Some(l1u), _) => l1u,
            (None, Some(l1d)) => l1d,
            (None, None) => unreachable!("store absorb picked an L1"),
        };
        l1.write(addr)
    }

    /// Cycles of a hit in the L1 serving `fetch`.
    pub(crate) fn l1_hit_cycles(&self, fetch: bool) -> u64 {
        if fetch {
            self.fetch_route.l1_hit
        } else {
            self.data_route.l1_hit
        }
    }

    /// A read or fetch of `width` at `addr` in main-memory space. Returns
    /// `(cycles, outcome)`; see [`ReadOutcome`] for the per-level report.
    /// All routing decisions and cycle constants were resolved at
    /// construction time; the per-access work is one or two tag-store
    /// lookups plus counter updates — plus, on write-back configurations,
    /// the dirty-victim retirement a fill can trigger.
    pub fn read(
        &mut self,
        addr: u32,
        kind: AccessKind,
        width: AccessWidth,
        stats: &mut MemStats,
    ) -> (u64, ReadOutcome) {
        let fetch = kind == AccessKind::Fetch;
        let Some(l1r) = self.read_l1(addr, fetch, stats) else {
            // No L1 for this kind: route directly through the L2 when
            // one exists, otherwise bypass to main memory. Only the
            // scalar constants each branch needs are read out of the
            // route (copying the whole struct per access showed up in
            // profiles).
            let (l2_direct_hit, l2_direct_miss) = (
                self.data_route.l2_direct_hit,
                self.data_route.l2_direct_miss,
            );
            let Some(l2) = &mut self.l2 else {
                return (self.bypass(width, 1), ReadOutcome::BYPASS);
            };
            let r = l2.read(addr);
            let cycles = if r.hit {
                stats.l2_hits += 1;
                l2_direct_hit
            } else {
                stats.l2_misses += 1;
                l2_direct_miss + self.l2_fill(r, stats)
            };
            let outcome = ReadOutcome {
                first_miss: Some(!r.hit),
                l2_hit: Some(r.hit),
            };
            return (cycles, outcome);
        };
        if l1r.hit {
            return (
                self.l1_hit_cycles(fetch),
                ReadOutcome {
                    first_miss: Some(false),
                    l2_hit: None,
                },
            );
        }
        let (mut cycles, l2_hit) = self.fill_l1(addr, fetch, stats);
        // The fill's victim: only write-back L1s ever hold dirty lines
        // (a unified write-back L1's fetch misses can evict lines the
        // data side dirtied).
        if let Some(victim) = l1r.writeback {
            cycles += self.retire_l1_victim(victim, stats);
        }
        (
            cycles,
            ReadOutcome {
                first_miss: Some(true),
                l2_hit,
            },
        )
    }

    /// Credits `count` hits of `kind` at the first cache in its path
    /// without a tag-store lookup, returning their cycles: the counters
    /// and cost [`HierarchyCaches::read`] charges for such a hit. Exact
    /// only for accesses known to hit the most recently used line of a
    /// cache that saw nothing else since — a hit no replacement policy
    /// acts on (see `MemTrace::with_run_index`). The kind must have a
    /// cache in its path.
    pub(crate) fn credit_hits(&self, kind: AccessKind, count: u64, stats: &mut MemStats) -> u64 {
        let fetch = kind == AccessKind::Fetch;
        let route = if fetch {
            &self.fetch_route
        } else {
            &self.data_route
        };
        if route.pick == L1Pick::None {
            debug_assert!(self.l2.is_some(), "a first-level hit needs a cache");
            stats.l2_hits += count;
            return count.saturating_mul(route.l2_direct_hit);
        }
        if fetch {
            stats.l1i_hits += count;
        } else {
            stats.l1d_hits += count;
        }
        stats.cache_hits += count;
        count.saturating_mul(route.l1_hit)
    }

    /// Credits `count` store hits at a write-back L1 without a tag-store
    /// lookup, returning their cycles: the cost [`HierarchyCaches::write`]
    /// charges for such a hit, which records no counters. Exact only for
    /// stores to the most recently used line of an absorbing L1 that saw
    /// nothing else since and is already dirty — a hit that changes no
    /// state (see `MemTrace::with_run_index`).
    pub(crate) fn credit_store_hits(&self, count: u64) -> u64 {
        debug_assert!(
            count == 0 || self.write_route.absorb == StoreAbsorb::L1,
            "a store hit needs an absorbing L1"
        );
        count.saturating_mul(self.data_route.l1_hit)
    }

    /// A data write to main-memory space at time `now`, routed by the
    /// store-absorb rule ([`MemHierarchyConfig::store_absorb`]):
    ///
    /// * **absorbed by a write-back L1**: hit = dirty the line in place at
    ///   the L1 hit cost; miss = write-allocate (fill from L2/main like a
    ///   read miss, then dirty), retiring any dirty victim;
    /// * **absorbed by a write-back L2** (write-through or absent L1D in
    ///   front): hit = dirty in place at the direct-L2 cost; miss =
    ///   write-allocate from main, retiring any dirty L2 victim;
    /// * **all-write-through path**: the tag stores are untouched and the
    ///   store pays the main-memory cost — or the store buffer's 1-cycle
    ///   accept (plus the buffer-full stall) when one is configured —
    ///   exactly like the single-level model.
    ///
    /// Returns the store's cycles.
    pub fn write(&mut self, addr: u32, width: AccessWidth, now: u64, stats: &mut MemStats) -> u64 {
        match self.write_route.absorb {
            StoreAbsorb::L1 => {
                let w = self.write_l1(addr);
                if w.hit {
                    return self.data_route.l1_hit;
                }
                // Write-allocate: fill the line from the next level, as a
                // data read miss does.
                let (mut cycles, _) = self.fill_l1(addr, false, stats);
                if let Some(victim) = w.writeback {
                    cycles += self.retire_l1_victim(victim, stats);
                }
                cycles
            }
            StoreAbsorb::L2 => {
                let l2 = self.l2.as_mut().expect("write-back L2 absorbs");
                let w = l2.write(addr);
                if w.hit {
                    self.data_route.l2_direct_hit
                } else {
                    self.data_route.l2_direct_miss + self.l2_fill(w, stats)
                }
            }
            StoreAbsorb::Main => {
                // Write-through straight to main memory: no tag-store
                // change at any level, byte-identical to the paper's
                // machine — the store buffer, when present, only changes
                // *when* the cycles are paid.
                if self.write_route.data_cached {
                    stats.write_throughs += 1;
                }
                match &mut self.store_buffer {
                    Some(sb) => sb.push(now, stats),
                    None => self.bypass(width, 1),
                }
            }
        }
    }

    fn l1_ref(&self, fetch: bool) -> Option<&Cache> {
        self.cfg.l1_for(fetch)?;
        if self.l1u.is_some() {
            self.l1u.as_ref()
        } else if fetch {
            self.l1i.as_ref()
        } else {
            self.l1d.as_ref()
        }
    }

    /// Whether `addr`'s line currently sits in the L1 serving `fetch`
    /// traffic (no state change; tests only).
    pub fn probe_l1(&self, addr: u32, fetch: bool) -> Option<bool> {
        self.l1_ref(fetch).map(|c| c.probe(addr))
    }

    /// Whether `addr`'s line currently sits in the L2 (tests only).
    pub fn probe_l2(&self, addr: u32) -> Option<bool> {
        self.l2.as_ref().map(|c| c.probe(addr))
    }

    /// Whether `addr`'s line is dirty in the L1 serving data traffic
    /// (tests only).
    pub fn probe_l1_dirty(&self, addr: u32) -> Option<bool> {
        self.l1_ref(false).map(|c| c.probe_dirty(addr))
    }

    /// Whether `addr`'s line is dirty in the L2 (tests only).
    pub fn probe_l2_dirty(&self, addr: u32) -> Option<bool> {
        self.l2.as_ref().map(|c| c.probe_dirty(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_isa::cachecfg::CacheConfig;
    use spmlab_isa::hierarchy::{MainMemoryTiming, StoreBuffer};

    const A: u32 = 0x0010_0000;

    fn rd(h: &mut HierarchyCaches, addr: u32, kind: AccessKind) -> (u64, Option<bool>) {
        let mut stats = MemStats::default();
        let (cyc, out) = h.read(addr, kind, AccessWidth::Half, &mut stats);
        (cyc, out.first_miss)
    }

    fn wr(h: &mut HierarchyCaches, addr: u32, now: u64) -> (u64, MemStats) {
        let mut stats = MemStats::default();
        let cyc = h.write(addr, AccessWidth::Word, now, &mut stats);
        (cyc, stats)
    }

    #[test]
    fn l1_only_matches_single_level_timing() {
        let mut h = HierarchyCaches::new(MemHierarchyConfig::l1_only(CacheConfig::unified(64)));
        assert_eq!(rd(&mut h, A, AccessKind::Fetch), (17, Some(true)));
        assert_eq!(rd(&mut h, A + 2, AccessKind::Fetch), (1, Some(false)));
        assert_eq!(
            rd(&mut h, A + 4, AccessKind::Read),
            (1, Some(false)),
            "unified shares lines"
        );
    }

    #[test]
    fn split_l1_isolates_instruction_and_data() {
        let mut h = HierarchyCaches::new(MemHierarchyConfig::split_l1(64, 64));
        assert_eq!(rd(&mut h, A, AccessKind::Fetch), (17, Some(true)));
        // Same line, data side: its own tag store, so it misses separately.
        assert_eq!(rd(&mut h, A, AccessKind::Read), (17, Some(true)));
        assert_eq!(rd(&mut h, A, AccessKind::Fetch), (1, Some(false)));
        assert_eq!(rd(&mut h, A, AccessKind::Read), (1, Some(false)));
    }

    #[test]
    fn l2_serves_l1_conflict_evictions() {
        let cfg =
            MemHierarchyConfig::l1_only(CacheConfig::unified(64)).with_l2(CacheConfig::l2(4096));
        let mut h = HierarchyCaches::new(cfg.clone());
        let both_miss = cfg.l1_miss_l2_miss_cycles(true);
        let l2_hit = cfg.l1_miss_l2_hit_cycles(true);
        assert_eq!(rd(&mut h, A, AccessKind::Fetch), (both_miss, Some(true)));
        // 64-byte L1 wraps every 64 bytes: A+64 evicts A from L1, misses L2.
        assert_eq!(
            rd(&mut h, A + 64, AccessKind::Fetch),
            (both_miss, Some(true))
        );
        // A is gone from L1 but still in the 4 KiB L2.
        assert_eq!(rd(&mut h, A, AccessKind::Fetch), (l2_hit, Some(true)));
        assert_eq!(h.probe_l2(A), Some(true));
    }

    #[test]
    fn bypass_uses_main_timing() {
        let cfg = MemHierarchyConfig::uncached_with(MainMemoryTiming::dram(10));
        let mut h = HierarchyCaches::new(cfg);
        let mut stats = MemStats::default();
        assert_eq!(
            h.read(A, AccessKind::Read, AccessWidth::Word, &mut stats),
            (14, ReadOutcome::BYPASS)
        );
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }

    #[test]
    fn per_level_stats_accumulate() {
        let cfg = MemHierarchyConfig::split_l1(64, 64).with_l2(CacheConfig::l2(4096));
        let mut h = HierarchyCaches::new(cfg);
        let mut stats = MemStats::default();
        h.read(A, AccessKind::Fetch, AccessWidth::Half, &mut stats);
        h.read(A, AccessKind::Fetch, AccessWidth::Half, &mut stats);
        h.read(A, AccessKind::Read, AccessWidth::Word, &mut stats);
        assert_eq!((stats.l1i_hits, stats.l1i_misses), (1, 1));
        assert_eq!((stats.l1d_hits, stats.l1d_misses), (0, 1));
        // First fetch missed L2; the data miss then hit the L2 line.
        assert_eq!((stats.l2_hits, stats.l2_misses), (1, 1));
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn write_through_writes_do_not_allocate_anywhere() {
        let cfg = MemHierarchyConfig::split_l1(64, 64).with_l2(CacheConfig::l2(4096));
        let mut h = HierarchyCaches::new(cfg);
        let (cyc, stats) = wr(&mut h, A, 0);
        assert_eq!(cyc, 4, "write-through pays the Table-1 main word cost");
        assert_eq!(h.probe_l1(A, false), Some(false));
        assert_eq!(h.probe_l2(A), Some(false));
        assert_eq!(stats.write_throughs, 1);
        assert_eq!(stats.write_backs + stats.dirty_evictions, 0);
    }

    #[test]
    fn write_back_l1_absorbs_and_retires_victims() {
        let cfg = MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(64)),
                d: Some(CacheConfig::data_only(64).write_back()),
            },
            l2: None,
            main: MainMemoryTiming::table1(),
        };
        let mut h = HierarchyCaches::new(cfg.clone());
        // Store miss: write-allocate at the read-fill cost.
        let (cyc, stats) = wr(&mut h, A, 0);
        assert_eq!(cyc, cfg.l1_miss_no_l2_cycles(false));
        assert_eq!(stats.write_throughs, 0, "absorbed, not written through");
        assert_eq!(h.probe_l1_dirty(A), Some(true));
        // Store hit: 1 cycle, stays dirty.
        let (cyc, _) = wr(&mut h, A + 4, 0);
        assert_eq!(cyc, cfg.l1_hit_cycles(false));
        // A conflicting *read* evicts the dirty line: fill + write-back
        // burst to main.
        let mut stats = MemStats::default();
        let (cyc, _) = h.read(A + 64, AccessKind::Read, AccessWidth::Word, &mut stats);
        assert_eq!(
            cyc,
            cfg.l1_miss_no_l2_cycles(false) + cfg.l1_writeback_cycles()
        );
        assert_eq!((stats.dirty_evictions, stats.write_backs), (1, 1));
        assert_eq!(h.probe_l1_dirty(A), Some(false));
    }

    #[test]
    fn write_back_l1_victim_lands_in_write_back_l2() {
        let cfg = MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(64)),
                d: Some(CacheConfig::data_only(64).write_back()),
            },
            l2: Some(CacheConfig::l2(4096).write_back()),
            main: MainMemoryTiming::table1(),
        };
        let mut h = HierarchyCaches::new(cfg.clone());
        let mut stats = MemStats::default();
        // Dirty A in L1 (store miss allocates via the L2 path).
        h.write(A, AccessWidth::Word, 0, &mut stats);
        assert_eq!(h.probe_l1_dirty(A), Some(true));
        // Conflicting store evicts A: the dirty line lands in the L2
        // (dirty there), no burst to main.
        let mut stats = MemStats::default();
        let cyc = h.write(A + 64, AccessWidth::Word, 0, &mut stats);
        assert_eq!(
            cyc,
            cfg.l1_miss_l2_miss_cycles(false) + cfg.l1_writeback_cycles()
        );
        assert_eq!((stats.dirty_evictions, stats.write_backs), (1, 0));
        assert_eq!(h.probe_l2_dirty(A), Some(true));
    }

    #[test]
    fn write_back_l2_absorbs_behind_write_through_l1() {
        let cfg = MemHierarchyConfig::split_l1(64, 64).with_l2(CacheConfig::l2(4096).write_back());
        let mut h = HierarchyCaches::new(cfg.clone());
        let (cyc, stats) = wr(&mut h, A, 0);
        assert_eq!(cyc, cfg.l2_direct_miss_cycles(), "write-allocate in L2");
        assert_eq!(stats.write_throughs, 0);
        assert_eq!(h.probe_l1(A, false), Some(false), "WT L1 untouched");
        assert_eq!(h.probe_l2_dirty(A), Some(true));
        let (cyc, _) = wr(&mut h, A + 4, 0);
        assert_eq!(cyc, cfg.l2_direct_hit_cycles(), "store hit in L2");
    }

    #[test]
    fn store_buffer_accepts_then_stalls() {
        let cfg = MemHierarchyConfig::uncached_with(
            MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(2, 10)),
        );
        let mut h = HierarchyCaches::new(cfg);
        let mut stats = MemStats::default();
        // Two stores fill the buffer at 1 cycle each.
        assert_eq!(h.write(A, AccessWidth::Word, 0, &mut stats), 1);
        assert_eq!(h.write(A + 4, AccessWidth::Word, 1, &mut stats), 1);
        // Third store at t=2: the oldest entry completes at t=10 → 8-cycle
        // stall plus the accept.
        assert_eq!(h.write(A + 8, AccessWidth::Word, 2, &mut stats), 1 + 8);
        assert_eq!(stats.store_buffer_stalls, 8);
        // Much later the buffer has drained: back to 1 cycle.
        assert_eq!(h.write(A + 12, AccessWidth::Word, 100, &mut stats), 1);
        // No stall may ever exceed one drain period (the analyzability
        // contract the WCET charge relies on).
        let mut worst = 0;
        for i in 0..64u32 {
            let c = h.write(A + 16 + i * 4, AccessWidth::Word, 101, &mut stats);
            worst = worst.max(c);
        }
        assert!(worst <= 1 + 10, "stall bound violated: {worst}");
    }

    /// The simulator trusts the machine rules of `spmlab-isa` and no
    /// others: over a seeded mix of valid and invalid levels, scopes,
    /// buses and store buffers, `HierarchyCaches::new` builds exactly the
    /// hierarchies `MemHierarchyConfig::validate` accepts and panics on
    /// every one it refuses. The mix has no size-0 level: the canonical
    /// form drops those, and a tag store refuses them (checked last).
    #[test]
    fn builds_exactly_what_validate_accepts() {
        use spmlab_isa::hierarchy::L1;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut x = 0x5eed_u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let level = |next: &mut dyn FnMut(u64) -> u64| {
            let scoped = [
                CacheConfig::unified,
                CacheConfig::instr_only,
                CacheConfig::data_only,
            ];
            let c = CacheConfig {
                line: [2, 4, 16, 24, 2048][next(5) as usize],
                assoc: [0, 1, 2, 3, 64][next(5) as usize],
                hit_latency: next(3) as u32,
                ..scoped[next(3) as usize]([64, 96, 256, 1024, 4096][next(5) as usize])
            };
            if next(2) == 0 {
                c
            } else {
                c.write_back()
            }
        };
        let accepted = (0..2000)
            .filter(|_| {
                let l1 = match next(4) {
                    0 => L1::None,
                    1 => L1::Unified(level(&mut next)),
                    _ => L1::Split {
                        i: (next(4) > 0).then(|| level(&mut next)),
                        d: (next(4) > 0).then(|| level(&mut next)),
                    },
                };
                let l2 = (next(2) == 0).then(|| level(&mut next));
                let main = MainMemoryTiming {
                    latency: next(12),
                    beat_cycles: next(3),
                    bus_bytes: next(3) as u32 * 2,
                    store_buffer: (next(4) == 0).then(|| StoreBuffer::new(next(3) as u32, next(3))),
                };
                let cfg = MemHierarchyConfig { l1, l2, main };
                let valid = cfg.validate().is_ok();
                let built = catch_unwind(AssertUnwindSafe(|| HierarchyCaches::new(cfg.clone())));
                assert_eq!(built.is_ok(), valid, "{cfg:?}: {:?}", cfg.validate());
                valid
            })
            .count();
        assert!(
            (100..1900).contains(&accepted),
            "{accepted} of 2000 accepted"
        );

        let disabled = MemHierarchyConfig::l1_only(CacheConfig {
            size: 0,
            ..CacheConfig::unified(1024)
        });
        assert_eq!(disabled.validate(), Ok(()));
        assert!(catch_unwind(|| HierarchyCaches::new(disabled)).is_err());
    }
}
