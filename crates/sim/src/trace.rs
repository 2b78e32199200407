//! Trace-driven memory-hierarchy replay.
//!
//! A hierarchy sweep simulates the *same program on the same input* once
//! per memory configuration — but the executed instruction stream and
//! every data value are identical across configurations, because caches
//! only change *timing*. The one architectural exception is the MMIO
//! cycle register, whose value depends on timing; the trace records the
//! observed values and replay validates them.
//!
//! [`simulate_with_trace`] therefore runs the full interpreter once (on
//! the uncached machine) and records an **ordered event stream**: every
//! main-memory read, fetch *and write* (address, width) in program
//! order, each annotated with the hierarchy-independent cycles that
//! elapsed since the previous event and with the position of the
//! per-instruction `now` latch the store-buffer model samples.
//! [`MemTrace::price`] then prices the recorded sequence under any
//! [`MemHierarchyConfig`] by driving the *same* concrete tag stores
//! ([`HierarchyCaches`]) the interpreter would have used — dirty bits,
//! eviction write-backs, write-allocate installs and store-buffer drain
//! timing included — making the priced cycle count and statistics
//! bit-identical to a fresh simulation while skipping instruction decode
//! and execution entirely. An eight-point sweep costs one interpretation
//! plus eight cheap replays instead of eight interpretations.
//!
//! ## What a trace's machines share
//!
//! [`MemTrace::price`] takes a [`Tallies`] memo and decides alone what
//! the machines priced through it share; [`MemTrace::replay`] is `price`
//! with a memo of its own. Two facts make the sharing exact.
//!
//! *Cycles are affine in the main-memory latency.* Without a store
//! buffer and without cycle-register reads, every cost that reaches main
//! memory is `latency + beats * beat_cycles`, and every other cost and
//! statistic depends on the tag stores only. So such a machine is priced
//! from a *tally*: the stream walked once per cache geometry at latency
//! 0, counting main-memory transactions, which yields the exact result
//! at any latency as `cycles(0) + latency * transactions`. The memo keeps
//! each tally under its machine with the latency zeroed. Store-buffered
//! machines (whose drain timing moves with the latency) and programs that
//! read the cycle register (whose recorded values would move too) take
//! the ordered engine on every call.
//!
//! *An L2 sees only what the L1 lets through.* The L1 never looks at what
//! sits behind it: the caches are not inclusive, and nothing invalidates
//! an L1 line from below. So the L2 sees exactly what the L1 lets
//! through, in program order, whatever its size (the filtering
//! Hardy–Puaut's multi-level analysis applies between levels), and a
//! tally runs in two stages:
//!
//! * the *first-level stage* walks the stream (or its run index) through
//!   the L1 alone. It keeps the L1's counters and hit cycles, and
//!   records every operation that reaches the level below, in the order
//!   `HierarchyCaches::read` and `HierarchyCaches::write` issue them:
//!   the line fill of a fetch, read or store miss, then the dirty victim
//!   it evicted; a read no L1 serves; and a store an L2 absorbs;
//! * the *second stage* feeds that record to the machine's L2 through
//!   the same `HierarchyCaches` calls the interpreter makes below its L1
//!   (`fill_l1`, `retire_l1_victim`, and `read`/`write` for accesses no
//!   L1 takes), or, with no L2, prices it from its per-kind counts.
//!
//! A stage depends on the L1 and on whether stores reach the level below
//! (a write-back L2 absorbs them); the memo keeps it under both, so the
//! tallies of one L1 over every L2 size walk the stream once. A machine
//! with no L1 has no first-level stage: its L2, or nothing, is the first
//! level. Each tally opens one `replay` span, as does each ordered
//! replay; the `replay_events` and `replay_elided` counters count the
//! first walks, and `replay_l2_events` what a stage fed to an L2.
//!
//! ## Skipping guaranteed first-level hits
//!
//! Most fetches and many data accesses touch the line their cache touched
//! last. A trace opted in with [`MemTrace::with_run_index`] builds, on the
//! first tally that can use it, a run index: one pass over the events at
//! 16-byte line granularity that keeps every access at least one of two
//! rules cannot skip, and counts per rule and class (fetch, read, write)
//! the accesses it can. Under a rule, an access is skipped when its line
//! is the line of the previous access in its stream:
//!
//! * *same-stream*: fetches form one stream and data accesses the other
//!   — used when a split L1 gives each a cache of its own;
//! * *shared*: every access is in one stream — used when all of them
//!   reach one first cache (a unified L1, or an L2 with no L1 in front).
//!
//! Such an access hits the most recently used line of a cache that saw
//! nothing else in between, and the hit changes no state: LRU order stays
//! (ticks are only compared within a set), and round-robin and random
//! replacement act on misses only. A first walk reads the index entries
//! its rule keeps and credits the rest as first-level hits
//! (`HierarchyCaches::credit_hits`, `HierarchyCaches::credit_store_hits`).
//! There are two indexes, each built on first use:
//!
//! * first walks whose stores go through to main memory
//!   (`store_absorb() == StoreAbsorb::Main`) and whose first-level lines
//!   are all at least 16 bytes read an index of fetches and reads only:
//!   write-through stores touch no tag store, so the data stream is the
//!   reads;
//! * first walks whose stores a write-back L1 absorbs
//!   (`store_absorb() == StoreAbsorb::L1`), with both first-level caches
//!   present and lines of at least 16 bytes, read an index whose data
//!   stream holds reads and writes. A run (consecutive same-line accesses
//!   in one stream) keeps its head and, when the head is not a write, its
//!   first write: that write may dirty a clean line. Every later access
//!   of the run hits a line that is already dirty, and the dirty bit is
//!   idempotent, so a skipped store changes no state and, like any store
//!   hit, records no counter and sends nothing to the L2 or main memory.
//!
//! Every other first walk — scoped unified L1s, write-back L2s absorbing
//! the stores, shorter lines, traces without an index or whose index
//! could not be built — takes every event.
//!
//! ## Wire format
//!
//! One format: the ordered event stream above, with write events
//! interleaved in program order, inter-event cycle deltas and `now`-latch
//! positions, so write-back levels and store buffers replay exactly. Its
//! version byte is 2, the only one [`MemTrace::from_bytes`] accepts. MMIO
//! cycle-register reads carry their recorded value; replay re-derives the
//! register value under the target hierarchy and returns
//! [`SimError::ReplayDivergence`] when they differ (callers fall back to
//! full simulation). A recording whose inter-event gap does not fit the
//! 32-bit deltas is an error of [`simulate_with_trace`], never a trace.
//!
//! The header's access counts must agree with the events: the
//! cycle-register reads, the reads by width (a fetch is a halfword read)
//! and the writes by width. The recorder builds them from the events,
//! and [`MemTrace::from_bytes`] rejects a stream whose counts disagree,
//! so a machine priced from the counts (uncached) and one that walks the
//! events (cached) see one stream, and no walk past the decoder checks
//! it again.

use crate::hierarchy::HierarchyCaches;
use crate::machine::{SimOptions, SimResult};
use crate::memsys::{AccessKind, MemStats};
use crate::SimError;
use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig, StoreAbsorb, L1};
use spmlab_isa::image::Executable;
use spmlab_isa::mem::AccessWidth;
use std::sync::OnceLock;

/// Event kinds, packed into one byte per event alongside the width.
pub(crate) const EV_FETCH: u8 = 0;
pub(crate) const EV_READ_BYTE: u8 = 1;
pub(crate) const EV_READ_HALF: u8 = 2;
pub(crate) const EV_READ_WORD: u8 = 3;
pub(crate) const EV_WRITE_BYTE: u8 = 4;
pub(crate) const EV_WRITE_HALF: u8 = 5;
pub(crate) const EV_WRITE_WORD: u8 = 6;
/// MMIO cycle-register read; `addr` holds the recorded register value.
pub(crate) const EV_CYCLE_READ: u8 = 7;

const EV_KIND_MAX: u8 = EV_CYCLE_READ;

/// The access each read kind (`EV_FETCH` … `EV_READ_WORD`) replays.
const READS: [(AccessKind, AccessWidth); 4] = [
    (AccessKind::Fetch, AccessWidth::Half),
    (AccessKind::Read, AccessWidth::Byte),
    (AccessKind::Read, AccessWidth::Half),
    (AccessKind::Read, AccessWidth::Word),
];

/// One ordered trace event: a main-memory read, fetch or write — the
/// accesses whose cost depends on the hierarchy — or an MMIO
/// cycle-register read (whose *value* depends on the hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AccessEvent {
    /// Accessed address (for `EV_CYCLE_READ`: the recorded value).
    pub addr: u32,
    /// `EV_FETCH` … `EV_CYCLE_READ`.
    pub kind: u8,
    /// Whether the per-instruction `now` latch (sampled by the
    /// store-buffer model and the cycle register) fired between the
    /// previous event and this one.
    pub latched: bool,
    /// Hierarchy-independent cycles between the previous event's
    /// completion and the latch (0 when `!latched`).
    pub delta_before: u32,
    /// Hierarchy-independent cycles between the latch (or the previous
    /// event's completion when `!latched`) and this access.
    pub delta_after: u32,
}

/// Trace recorder state, embedded in the memory system during a recording
/// run.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRecorder {
    pub events: Vec<AccessEvent>,
    /// Main-memory *read/fetch* counts by width (byte, half, word).
    pub main_reads: [u64; 3],
    /// Main-memory write counts by width.
    pub main_writes: [u64; 3],
    /// MMIO cycle-register reads observed (their values are recorded as
    /// `EV_CYCLE_READ` events).
    pub cycle_reads: u64,
    /// Recording cycles accounted through the end of the last event's
    /// access cost.
    cursor: u64,
    /// Cycle of the most recent un-consumed `now` latch.
    latch_at: Option<u64>,
    /// Cycle count immediately before the access being recorded.
    pre: u64,
    /// An inter-event delta overflowed `u32`: the ordered stream cannot
    /// describe the run (see [`TraceRecorder::into_trace`]).
    overflow: bool,
}

impl TraceRecorder {
    /// The simulation loop latched `mem.now` (once per instruction).
    #[inline]
    pub(crate) fn latch(&mut self, cycles: u64) {
        self.latch_at = Some(cycles);
    }

    /// The simulation loop is about to perform an access at `cycles`.
    #[inline]
    pub(crate) fn at(&mut self, cycles: u64) {
        self.pre = cycles;
    }

    fn delta(&mut self, cycles: u64) -> u32 {
        u32::try_from(cycles).unwrap_or_else(|_| {
            self.overflow = true;
            u32::MAX
        })
    }

    fn push_event(&mut self, addr: u32, kind: u8, cost: u64) {
        let (latched, before, after) = match self.latch_at.take() {
            // Only the *last* latch before an event matters: `now` is
            // sampled at the event, not at the latch.
            Some(l) if l >= self.cursor && l <= self.pre => (true, l - self.cursor, self.pre - l),
            _ => (false, 0, self.pre.saturating_sub(self.cursor)),
        };
        let (delta_before, delta_after) = (self.delta(before), self.delta(after));
        self.events.push(AccessEvent {
            addr,
            kind,
            latched,
            delta_before,
            delta_after,
        });
        self.cursor = self.pre + cost;
    }

    #[inline]
    pub(crate) fn record_read(
        &mut self,
        addr: u32,
        kind: AccessKind,
        width: AccessWidth,
        cost: u64,
    ) {
        let (ev, w) = match (kind, width) {
            (AccessKind::Fetch, _) => (EV_FETCH, 1),
            (_, AccessWidth::Byte) => (EV_READ_BYTE, 0),
            (_, AccessWidth::Half) => (EV_READ_HALF, 1),
            (_, AccessWidth::Word) => (EV_READ_WORD, 2),
        };
        self.main_reads[w] += 1;
        self.push_event(addr, ev, cost);
    }

    #[inline]
    pub(crate) fn record_write(&mut self, addr: u32, width: AccessWidth, cost: u64) {
        let (ev, w) = match width {
            AccessWidth::Byte => (EV_WRITE_BYTE, 0),
            AccessWidth::Half => (EV_WRITE_HALF, 1),
            AccessWidth::Word => (EV_WRITE_WORD, 2),
        };
        self.main_writes[w] += 1;
        self.push_event(addr, ev, cost);
    }

    #[inline]
    pub(crate) fn record_cycle_read(&mut self, value: u32) {
        self.cycle_reads += 1;
        self.push_event(value, EV_CYCLE_READ, 1);
    }

    /// The trace of a recorded run that took `cycles` in all, with the
    /// memory statistics `stats` of the uncached recording machine.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when two consecutive events lie more than
    /// `u32::MAX` cycles apart, which the ordered stream cannot describe.
    fn into_trace(
        self,
        cycles: u64,
        stats: &MemStats,
        max_cycles: u64,
    ) -> Result<MemTrace, SimError> {
        if self.overflow {
            return Err(SimError::Watchdog { cycles });
        }
        let table1 = MainMemoryTiming::table1();
        let widths = [AccessWidth::Byte, AccessWidth::Half, AccessWidth::Word];
        let mut main_cost = 0u64;
        for (w, &width) in widths.iter().enumerate() {
            main_cost += (self.main_reads[w] + self.main_writes[w]) * table1.access(width);
        }
        Ok(MemTrace {
            base_cycles: cycles - main_cost,
            tail_cycles: cycles.saturating_sub(self.cursor),
            read_counts: self.main_reads,
            main_writes: self.main_writes,
            cycle_reads: self.cycle_reads,
            // The recording machine is uncached, so its statistics hold
            // no cache counters — they are exactly the invariant template.
            stats_template: stats.clone(),
            max_cycles,
            events: self.events,
            runs: None,
        })
    }
}

/// Errors decoding a serialized trace ([`MemTrace::from_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The byte stream does not start with the trace magic.
    BadMagic,
    /// The trace was produced by an unknown format version.
    UnsupportedVersion {
        /// The version byte found in the stream.
        found: u8,
    },
    /// The stream ends before the declared content.
    Truncated {
        /// Bytes required to decode the next field.
        need: usize,
        /// Bytes remaining in the stream.
        have: usize,
    },
    /// A structurally invalid field (bad event kind, event count not
    /// matching the payload, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a trace: bad magic"),
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found}")
            }
            TraceError::Truncated { need, have } => {
                write!(f, "truncated trace: need {need} bytes, have {have}")
            }
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

const TRACE_MAGIC: &[u8; 8] = b"SPMTRACE";
/// The wire format's version byte: the ordered event stream.
const TRACE_VERSION: u8 = 2;
const EVENT_BYTES: usize = 14;

/// A recorded execution's hierarchy-independent skeleton.
#[derive(Debug, Clone)]
pub struct MemTrace {
    events: Vec<AccessEvent>,
    /// Cycles of the recorded run not attributable to main-memory traffic
    /// (instruction base/extra cycles plus scratchpad/MMIO accesses).
    base_cycles: u64,
    /// Cycles of the recorded run after the last event's completion
    /// (replay adds them verbatim — they are hierarchy-independent).
    tail_cycles: u64,
    /// Main read/fetch counts by width (fetches are halfword reads).
    read_counts: [u64; 3],
    main_writes: [u64; 3],
    /// MMIO cycle-register reads in the stream.
    cycle_reads: u64,
    /// Region/width access counters with every cache counter zeroed — the
    /// hierarchy-independent part of [`MemStats`].
    stats_template: MemStats,
    /// Watchdog limit the recording ran under.
    max_cycles: u64,
    /// The run indexes, by [`Stores`], each built by the first tally that
    /// can use it; `None` unless opted in with
    /// [`MemTrace::with_run_index`]. An inner `None` marks a stream the
    /// index cannot describe. Derived from `events`: neither compared nor
    /// serialized.
    runs: Option<[OnceLock<Option<RunIndex>>; 2]>,
}

impl PartialEq for MemTrace {
    fn eq(&self, other: &MemTrace) -> bool {
        fn recorded(t: &MemTrace) -> impl PartialEq + '_ {
            (
                &t.events,
                t.base_cycles,
                t.tail_cycles,
                t.read_counts,
                t.main_writes,
                t.cycle_reads,
                &t.stats_template,
                t.max_cycles,
            )
        }
        // The run index is derived from the events.
        recorded(self) == recorded(other)
    }
}

impl Eq for MemTrace {}

/// Bits of a run-index entry holding the address: main memory ends below
/// 2^21.
const RUN_ADDR_BITS: u32 = 21;
const RUN_ADDR_MASK: u32 = (1 << RUN_ADDR_BITS) - 1;
/// Bits of a run-index entry holding the event kind (`EV_FETCH` …
/// `EV_WRITE_WORD`), above the address.
const RUN_KIND_BITS: u32 = 3;

/// Which accesses a tally may skip as guaranteed first-level hits (see
/// the module docs).
#[derive(Debug, Clone, Copy)]
enum RunRule {
    /// A split L1: fetches reach one first cache, data accesses the
    /// other.
    SameStream = 0,
    /// Every access reaches one first cache.
    Shared = 1,
}

/// Which run index a tally reads: the write-through one leaves stores
/// out, the write-back one walks them in program order.
#[derive(Debug, Clone, Copy)]
enum Stores {
    /// Stores touch no tag store (write-through tallies).
    Left = 0,
    /// Stores hit or write-allocate in the L1 (write-back tallies).
    Walked = 1,
}

impl RunRule {
    /// The line granularity both rules compare at: every first-level
    /// line the index serves is at least this long.
    const LINE: u32 = 16;

    /// The rule that is exact for the first walk of `hierarchy`'s tally,
    /// if any, and which index it reads. The first walk is the first
    /// level's (see the module docs), or an L2's with no L1 in front.
    /// Stores that reach no tag store leave the index out; stores a
    /// write-back L1 absorbs are walked in it, when both first-level
    /// caches exist and have lines of at least [`RunRule::LINE`] bytes;
    /// stores an L2 absorbs reach it in program order, so that walk takes
    /// every event.
    fn for_machine(hierarchy: &MemHierarchyConfig) -> Option<(RunRule, Stores)> {
        let long = |c: &spmlab_isa::cachecfg::CacheConfig| c.line >= RunRule::LINE;
        let stores = match hierarchy.store_absorb() {
            StoreAbsorb::Main => Stores::Left,
            StoreAbsorb::L1 => Stores::Walked,
            StoreAbsorb::L2 => return None,
        };
        match (hierarchy.l1_for(true), hierarchy.l1_for(false), stores) {
            (Some(i), Some(d), _) if long(i) && long(d) => Some((
                if hierarchy.l1_unified() {
                    RunRule::Shared
                } else {
                    RunRule::SameStream
                },
                stores,
            )),
            (None, None, Stores::Left) => hierarchy
                .l2
                .as_ref()
                .filter(|c| long(c))
                .map(|_| (RunRule::Shared, stores)),
            _ => None,
        }
    }

    /// The entry bit marking an access this rule skips.
    fn skip_bit(self) -> u32 {
        1 << (RUN_ADDR_BITS + RUN_KIND_BITS + self as u32)
    }
}

/// The accesses of a trace that at least one [`RunRule`] cannot skip, in
/// program order, plus what each rule skips: fetches and reads, and under
/// [`Stores::Walked`] writes too.
#[derive(Debug, Clone)]
struct RunIndex {
    /// One entry per kept access: the address in the low
    /// [`RUN_ADDR_BITS`] bits, the event kind in the next
    /// [`RUN_KIND_BITS`], then one skip bit per rule.
    heads: Vec<u32>,
    /// Entries each rule walks.
    walked: [u64; 2],
    /// Accesses each rule skips, by rule, then fetches, reads and writes.
    elided: [[u64; 3]; 2],
    /// Whether the entries include stores.
    stores: Stores,
}

impl RunIndex {
    /// Indexes `events`, which hold no cycle-register read (a tally's
    /// trace has none); `None` when an indexed access's address does not
    /// fit an entry, a stream the per-event walk must take.
    ///
    /// Under each rule an access is skipped when its line is the line of
    /// the previous access in its stream, except for the first write of
    /// a run (a maximal sequence of same-line accesses in one stream)
    /// whose head is not a write: that write may dirty a clean line, so
    /// it is kept. Every later access of the run hits an L1's most
    /// recently used line, already dirty once the run wrote.
    fn build(events: &[AccessEvent], stores: Stores) -> Option<RunIndex> {
        match stores {
            Stores::Left => RunIndex::build_with::<false>(events),
            Stores::Walked => RunIndex::build_with::<true>(events),
        }
    }

    /// [`RunIndex::build`] with [`Stores::Walked`] when `WRITES`, so the
    /// write-through pass carries no dirty-bit state.
    fn build_with<const WRITES: bool>(events: &[AccessEvent]) -> Option<RunIndex> {
        const NONE: u32 = u32::MAX;
        let mut heads = Vec::new();
        let mut walked = [0u64; 2];
        let mut elided = [[0u64; 3]; 2];
        // The last line fetched, accessed as data, and either; and whether
        // the data and the shared run have written.
        let mut last = [NONE; 2];
        let mut last_any = NONE;
        let (mut wrote, mut wrote_any) = (false, false);
        for ev in events {
            let class = match ev.kind {
                EV_FETCH => 0,
                EV_READ_BYTE..=EV_READ_WORD => 1,
                _ if WRITES => 2,
                _ => continue,
            };
            if ev.addr > RUN_ADDR_MASK {
                return None;
            }
            let line = ev.addr / RunRule::LINE;
            let data = class.min(1);
            let mut skips = [last[data] == line, last_any == line];
            last[data] = line;
            last_any = line;
            if WRITES {
                // Only a run's first write may find its line clean.
                let write = class == 2;
                if data == 1 {
                    skips[0] &= wrote | !write;
                    wrote = skips[0] & wrote | write;
                }
                skips[1] &= wrote_any | !write;
                wrote_any = skips[1] & wrote_any | write;
            }
            let mut head = ev.addr | u32::from(ev.kind) << RUN_ADDR_BITS;
            for rule in [RunRule::SameStream, RunRule::Shared] {
                if skips[rule as usize] {
                    elided[rule as usize][class] += 1;
                    head |= rule.skip_bit();
                } else {
                    walked[rule as usize] += 1;
                }
            }
            if !skips.iter().all(|&s| s) {
                heads.push(head);
            }
        }
        heads.shrink_to_fit();
        Some(RunIndex {
            heads,
            walked,
            elided,
            stores: if WRITES { Stores::Walked } else { Stores::Left },
        })
    }

    /// The entries `rule` keeps, in program order, each as its event
    /// kind and address.
    fn kept(&self, rule: RunRule) -> impl Iterator<Item = (u8, u32)> + '_ {
        let skip = rule.skip_bit();
        self.heads
            .iter()
            .filter(move |&&head| head & skip == 0)
            .map(|&head| {
                let kind = (head >> RUN_ADDR_BITS) as u8 & ((1 << RUN_KIND_BITS) - 1);
                (kind, head & RUN_ADDR_MASK)
            })
    }

    /// Credits the accesses `rule` skips as hits at the first cache of
    /// `caches`, returning their cycles.
    fn credit_elided(&self, rule: RunRule, caches: &HierarchyCaches, stats: &mut MemStats) -> u64 {
        let [fetches, reads, writes] = self.elided[rule as usize];
        let mut cycles = caches.credit_store_hits(writes);
        for (kind, count) in [(AccessKind::Fetch, fetches), (AccessKind::Read, reads)] {
            cycles = cycles.saturating_add(caches.credit_hits(kind, count, stats));
        }
        cycles
    }

    /// The cycles of the entries `rule` keeps, through an L2 with no L1 in
    /// front. Every entry is a fetch or read: an L2 reads the index only
    /// when its stores go through to main memory. Kept out of line, as
    /// [`RunIndex::walk_first_level`].
    #[inline(never)]
    fn walk_l2(&self, rule: RunRule, caches: &mut HierarchyCaches, stats: &mut MemStats) -> u64 {
        self.kept(rule).fold(0u64, |cycles, (kind, addr)| {
            let (kind, width) = READS[usize::from(kind) & 3];
            cycles.saturating_add(caches.read(addr, kind, width, stats).0)
        })
    }

    /// Walks the entries `rule` keeps through `walk`'s first level. Without
    /// `WRITES` every entry is a fetch or read, and the loop never tests
    /// for a store. Kept out of line so that each loop gets registers of
    /// its own rather than sharing them with the rest of the tally.
    #[inline(never)]
    fn walk_first_level<const WRITES: bool>(&self, rule: RunRule, walk: &mut FirstLevelWalk) {
        for (kind, addr) in self.kept(rule) {
            if WRITES && kind > EV_READ_WORD {
                walk.write(kind, addr);
            } else {
                walk.read(kind, addr);
            }
        }
    }
}

/// Tags of what a first level sends to the level below it, in an entry of
/// [`FirstLevel::below`]. A read no L1 serves and a store an L2 absorbs
/// keep their event kind (`EV_FETCH` … `EV_WRITE_WORD`); an L1 line fill
/// for the data side or for fetches, and a dirty L1 victim, take these.
const BELOW_FILL_DATA: u8 = 8;
const BELOW_FILL_FETCH: u8 = 9;
const BELOW_VICTIM: u8 = 10;
const BELOW_TAGS: usize = 11;

/// The first-level stage of the tallies of every machine with one first
/// level (see the module docs): one walk of the trace through the L1
/// alone. It keeps the L1's counters and hit cycles and, in program
/// order, every operation that reaches the level below, in the order
/// `HierarchyCaches::read` and `HierarchyCaches::write` issue them.
#[derive(Debug)]
struct FirstLevel {
    /// Cycles of the L1 hits, store hits included.
    cycles: u64,
    /// The recording's statistics template plus the L1's counters.
    stats: MemStats,
    /// What reaches the level below, in program order: the address in the
    /// low 32 bits and the `BELOW_*` tag or event kind above them.
    below: Vec<u64>,
    /// The entries of `below`, by tag.
    counts: [u64; BELOW_TAGS],
}

impl FirstLevel {
    /// The cycles of what this stage sent below under `caches`, a machine
    /// with its first level: fed entry by entry to the L2, or priced from
    /// the counts when there is none (every fill and victim then goes to
    /// main memory, and no store reaches the stream). The
    /// `replay_l2_events` counter reports the entries fed.
    fn price_below(&self, caches: &mut HierarchyCaches, stats: &mut MemStats) -> u64 {
        if caches.config().l2.is_none() {
            let c = &self.counts;
            let mut cycles = caches.fills_from_main(false, c[BELOW_FILL_DATA as usize], stats);
            cycles = cycles
                .saturating_add(caches.fills_from_main(true, c[BELOW_FILL_FETCH as usize], stats))
                .saturating_add(caches.victims_to_main(c[BELOW_VICTIM as usize], stats));
            for (kind, &(_, width)) in READS.iter().enumerate() {
                cycles = cycles.saturating_add(caches.bypass(width, c[kind]));
            }
            return cycles;
        }
        if spmlab_obs::enabled() {
            spmlab_obs::counter("replay_l2_events", self.below.len() as u64);
        }
        self.below.iter().fold(0u64, |cycles, &entry| {
            let cost = feed_below(caches, (entry >> 32) as u8, entry as u32, stats);
            cycles.saturating_add(cost)
        })
    }
}

/// Feeds one access that reached the level below the first through
/// `caches`, returning its cycles: a read no L1 serves, a store an L2
/// absorbs, or an L1's line fill or dirty victim, by `tag`.
#[inline(always)]
fn feed_below(caches: &mut HierarchyCaches, tag: u8, addr: u32, stats: &mut MemStats) -> u64 {
    match tag {
        EV_FETCH..=EV_READ_WORD => {
            let (kind, width) = READS[tag as usize];
            caches.read(addr, kind, width, stats).0
        }
        EV_WRITE_BYTE..=EV_WRITE_WORD => {
            let width = AccessWidth::ALL[(tag - EV_WRITE_BYTE) as usize];
            caches.write(addr, width, 0, stats)
        }
        BELOW_FILL_DATA => caches.fill_l1(addr, false, stats).0,
        BELOW_FILL_FETCH => caches.fill_l1(addr, true, stats).0,
        _ => caches.retire_l1_victim(addr, stats),
    }
}

/// A first-level stage in the making: the L1's tag stores, and what the
/// walk has counted and sent below so far.
struct FirstLevelWalk {
    /// The machine's first level alone.
    caches: HierarchyCaches,
    absorb: StoreAbsorb,
    /// Walked L1 hits, data side first, then fetches; and store hits.
    hits: [u64; 2],
    store_hits: u64,
    stats: MemStats,
    below: Vec<u64>,
    counts: [u64; BELOW_TAGS],
}

impl FirstLevelWalk {
    #[inline(always)]
    fn send(&mut self, tag: u8, addr: u32) {
        self.below.push(u64::from(addr) | u64::from(tag) << 32);
        self.counts[tag as usize] += 1;
    }

    /// A read or fetch event (`EV_FETCH` … `EV_READ_WORD`): looked up in
    /// its L1, or sent below when no L1 serves it.
    #[inline(always)]
    fn read(&mut self, kind: u8, addr: u32) {
        let fetch = kind == EV_FETCH;
        match self.caches.read_l1(addr, fetch, &mut self.stats) {
            None => self.send(kind, addr),
            Some(r) if r.hit => self.hits[usize::from(fetch)] += 1,
            Some(r) => {
                self.send(
                    if fetch {
                        BELOW_FILL_FETCH
                    } else {
                        BELOW_FILL_DATA
                    },
                    addr,
                );
                if let Some(victim) = r.writeback {
                    self.send(BELOW_VICTIM, victim);
                }
            }
        }
    }

    /// A store event (`EV_WRITE_BYTE` … `EV_WRITE_WORD`): absorbed by a
    /// write-back L1, sent below to the L2 that absorbs it, or left to
    /// the per-width counters when it goes through to main memory.
    #[inline(always)]
    fn write(&mut self, kind: u8, addr: u32) {
        match self.absorb {
            StoreAbsorb::L1 => {
                let w = self.caches.write_l1(addr);
                if w.hit {
                    self.store_hits += 1;
                } else {
                    self.send(BELOW_FILL_DATA, addr);
                    if let Some(victim) = w.writeback {
                        self.send(BELOW_VICTIM, victim);
                    }
                }
            }
            StoreAbsorb::L2 => self.send(kind, addr),
            StoreAbsorb::Main => {}
        }
    }
}

/// A trace priced through one cache geometry at main-memory latency 0:
/// the latency-0 cycles, the main-memory transactions, and the memory
/// statistics, which do not depend on the latency at all. The cycles at
/// latency `L` are `cycles + L * transactions`, exactly.
#[derive(Debug)]
struct Tally {
    cycles: u64,
    /// Main-memory transactions, each paying the setup latency once.
    transactions: u64,
    stats: MemStats,
}

/// One trace's pricing memo (see the module docs): the first-level stages
/// of its tallies, each under its L1 and where the stores go, and the
/// tallies, each under its machine with the main-memory latency zeroed.
/// [`MemTrace::price`] fills it and decides what its machines share. Pass
/// one memo to the pricing of one trace only; dropping it frees what the
/// stages recorded.
#[derive(Debug, Default)]
pub struct Tallies {
    first_levels: Vec<((L1, StoreAbsorb), FirstLevel)>,
    tallies: Vec<(MemHierarchyConfig, Tally)>,
}

/// The value `memo` keeps under `key`, computed from the key and kept on
/// a miss.
fn memo<K: PartialEq, V>(memo: &mut Vec<(K, V)>, key: K, compute: impl FnOnce(&K) -> V) -> &V {
    let i = match memo.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            let value = compute(&key);
            memo.push((key, value));
            memo.len() - 1
        }
    };
    &memo[i].1
}

impl MemTrace {
    /// Always `true`: every trace replays under every hierarchy. Kept
    /// only because `perfbench/` still calls it; the benchmark change
    /// that deletes those calls (ROADMAP item (b)) deletes this too.
    pub fn replayable(&self) -> bool {
        true
    }

    /// Always `true`: every trace prices every hierarchy. Kept only
    /// because `perfbench/` still calls it; the benchmark change that
    /// deletes those calls (ROADMAP item (b)) deletes this too.
    pub fn supports(&self, _hierarchy: &MemHierarchyConfig) -> bool {
        true
    }

    /// Opts this trace into run-indexed tallies: the first tally that can
    /// use an index builds it (at most 4 bytes per indexed access), and
    /// every write-through tally with first-level lines of at least 16
    /// bytes, and every write-back tally whose stores such a first level
    /// absorbs, then skips the guaranteed first-level hits (see the
    /// module docs). Write-through and write-back tallies read an index
    /// each: the write-back one walks the stores too. Worth it for a
    /// trace priced many times, such as a sweep's baseline; results are
    /// bit-identical either way.
    pub fn with_run_index(mut self) -> MemTrace {
        self.runs = Some(Default::default());
        self
    }

    /// The run index and the rule `hierarchy` may skip by, when this
    /// trace is opted in and both exist.
    fn run_index(&self, hierarchy: &MemHierarchyConfig) -> Option<(&RunIndex, RunRule)> {
        let (rule, stores) = RunRule::for_machine(hierarchy)?;
        let runs = &self.runs.as_ref()?[stores as usize];
        let runs = runs.get_or_init(|| RunIndex::build(&self.events, stores));
        Some((runs.as_ref()?, rule))
    }

    /// Number of recorded hierarchy-sensitive access events.
    pub fn events(&self) -> usize {
        self.events.len()
    }

    /// MMIO cycle-register reads recorded in the stream.
    pub fn cycle_reads(&self) -> u64 {
        self.cycle_reads
    }

    /// Whether `hierarchy` is priced from a latency-0 tally: no store
    /// buffer sits in front of main memory and the program never read the
    /// cycle register (see the module docs).
    pub(crate) fn priceable(&self, hierarchy: &MemHierarchyConfig) -> bool {
        self.cycle_reads == 0 && hierarchy.main.store_buffer.is_none()
    }

    /// Prices the recorded execution under `hierarchy` with a memo of its
    /// own: [`MemTrace::price`] for one machine.
    ///
    /// # Errors
    ///
    /// As [`MemTrace::price`].
    pub fn replay(&self, hierarchy: &MemHierarchyConfig) -> Result<(u64, MemStats), SimError> {
        self.price(hierarchy, &mut Tallies::default())
    }

    /// Prices the recorded execution under `hierarchy`, returning the
    /// total cycles and the memory statistics — bit-identical to running
    /// [`simulate`](crate::machine::simulate) under the same
    /// configuration. A machine without a store buffer, on a program that
    /// never read the cycle register, takes its tally from `tallies` or
    /// tallies once and keeps it there, walking the first level only when
    /// no machine priced through `tallies` has walked it yet; any other
    /// machine takes the ordered replay engine (see the module docs).
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when the priced cycle count exceeds the
    /// recording's limit; [`SimError::ReplayDivergence`] when a recorded
    /// MMIO cycle-register value differs under the target hierarchy's
    /// timing, which callers should treat as "fall back to full
    /// simulation", not as fatal.
    pub fn price(
        &self,
        hierarchy: &MemHierarchyConfig,
        tallies: &mut Tallies,
    ) -> Result<(u64, MemStats), SimError> {
        let (cycles, stats) = if self.priceable(hierarchy) {
            let Tallies {
                first_levels,
                tallies,
            } = tallies;
            let tallied = MemHierarchyConfig {
                main: MainMemoryTiming {
                    latency: 0,
                    ..hierarchy.main
                },
                ..hierarchy.clone()
            };
            let tally = memo(tallies, tallied, |h| self.tally(h, first_levels));
            let latency = hierarchy.main.latency.saturating_mul(tally.transactions);
            (tally.cycles.saturating_add(latency), tally.stats.clone())
        } else {
            let _span = spmlab_obs::span("replay");
            if spmlab_obs::enabled() {
                spmlab_obs::counter("replay_events", self.events.len() as u64);
            }
            self.replay_ordered(hierarchy)?
        };
        if cycles > self.max_cycles {
            return Err(SimError::Watchdog { cycles });
        }
        Ok((cycles, stats))
    }

    /// Walks the recorded stream once through the tag stores of
    /// `hierarchy`, a priceable machine at main-memory latency 0, in two
    /// stages (see the module docs): the first level's walk, taken from
    /// `first_levels` or made and kept there, then the level below, fed
    /// what the first level let through.
    ///
    /// Write-through stores never touch a tag store and each cost one
    /// main write, so they are priced from the per-width counters;
    /// write-back machines take the write events in program order. An
    /// uncached machine walks nothing at all, and a run-indexed trace
    /// walks only the accesses that are not guaranteed first-level hits:
    /// fetches and reads when stores reach no tag store, and the stores
    /// too, each line's first store of a run included, when a write-back
    /// L1 absorbs them (see [`MemTrace::with_run_index`]). An L2 with no
    /// L1 in front is walked the same way, as the first level.
    fn tally(
        &self,
        hierarchy: &MemHierarchyConfig,
        first_levels: &mut Vec<((L1, StoreAbsorb), FirstLevel)>,
    ) -> Tally {
        let _span = spmlab_obs::span("replay");
        let main = hierarchy.main;
        let mut cycles = self.base_cycles;
        let mut transactions = 0u64;
        let has_l1 = hierarchy.l1_for(true).is_some() || hierarchy.l1_for(false).is_some();
        let mut stats = if has_l1 || hierarchy.l2.is_some() {
            let mut caches = HierarchyCaches::new(hierarchy.clone());
            let (below, stats) = if has_l1 {
                let key = (hierarchy.l1.clone(), hierarchy.store_absorb());
                let first = memo(first_levels, key, |_| self.first_level(hierarchy));
                let mut stats = first.stats.clone();
                cycles = cycles.saturating_add(first.cycles);
                (first.price_below(&mut caches, &mut stats), stats)
            } else {
                let mut stats = self.stats_template.clone();
                (self.walk_l2(hierarchy, &mut caches, &mut stats), stats)
            };
            cycles = cycles.saturating_add(below);
            transactions = caches.main_transactions();
            stats
        } else {
            // Uncached: every read is one main access at its width,
            // priced from the counters without touching the stream.
            for (&n, width) in self.read_counts.iter().zip(AccessWidth::ALL) {
                cycles = cycles.saturating_add(n.saturating_mul(main.access(width)));
                transactions = transactions.saturating_add(n);
            }
            self.stats_template.clone()
        };
        if hierarchy.store_absorb() == StoreAbsorb::Main {
            cycles = cycles.saturating_add(self.write_cycles(&main));
            let writes = self
                .main_writes
                .iter()
                .fold(0, |a: u64, &n| a.saturating_add(n));
            transactions = transactions.saturating_add(writes);
            if hierarchy.l1_for(false).is_some() || hierarchy.l2.is_some() {
                stats.write_throughs = writes;
            }
        }
        Tally {
            cycles,
            transactions,
            stats,
        }
    }

    /// Reports one first walk: `walked` events or index entries visited,
    /// the rest of the trace skipped.
    fn count_walk(&self, walked: u64) {
        if spmlab_obs::enabled() {
            spmlab_obs::counter("replay_events", walked);
            let elided = self.events.len() as u64 - walked;
            if elided > 0 {
                spmlab_obs::counter("replay_elided", elided);
            }
        }
    }

    /// The first-level stage of `hierarchy`'s tally: one walk of the
    /// trace through its L1 alone, run-indexed when it can be.
    fn first_level(&self, hierarchy: &MemHierarchyConfig) -> FirstLevel {
        let mut walk = FirstLevelWalk {
            caches: HierarchyCaches::new(MemHierarchyConfig {
                l2: None,
                ..hierarchy.clone()
            }),
            absorb: hierarchy.store_absorb(),
            hits: [0; 2],
            store_hits: 0,
            stats: self.stats_template.clone(),
            below: Vec::new(),
            counts: [0; BELOW_TAGS],
        };
        let mut cycles = 0u64;
        let walked = match self.run_index(hierarchy) {
            Some((runs, rule)) => {
                match runs.stores {
                    Stores::Left => runs.walk_first_level::<false>(rule, &mut walk),
                    Stores::Walked => runs.walk_first_level::<true>(rule, &mut walk),
                }
                cycles = runs.credit_elided(rule, &walk.caches, &mut walk.stats);
                runs.walked[rule as usize]
            }
            None => {
                for ev in &self.events {
                    if ev.kind <= EV_READ_WORD {
                        walk.read(ev.kind, ev.addr);
                    } else {
                        walk.write(ev.kind, ev.addr);
                    }
                }
                self.events.len() as u64
            }
        };
        self.count_walk(walked);
        let caches = &walk.caches;
        for (fetch, hits) in [false, true].into_iter().zip(walk.hits) {
            cycles = cycles.saturating_add(hits.saturating_mul(caches.l1_hit_cycles(fetch)));
        }
        cycles = cycles.saturating_add(caches.credit_store_hits(walk.store_hits));
        walk.below.shrink_to_fit();
        FirstLevel {
            cycles,
            stats: walk.stats,
            below: walk.below,
            counts: walk.counts,
        }
    }

    /// The cycles of an L2 with no L1 in front, the first level of its
    /// machine: every read reaches it, and so do the stores it absorbs.
    fn walk_l2(
        &self,
        hierarchy: &MemHierarchyConfig,
        caches: &mut HierarchyCaches,
        stats: &mut MemStats,
    ) -> u64 {
        let mut cycles = 0u64;
        let walked = match self.run_index(hierarchy) {
            Some((runs, rule)) => {
                cycles = runs.walk_l2(rule, caches, stats);
                cycles = cycles.saturating_add(runs.credit_elided(rule, caches, stats));
                runs.walked[rule as usize]
            }
            None => {
                // Write-through stores are priced from the counters.
                let stores = hierarchy.store_absorb() == StoreAbsorb::L2;
                for ev in &self.events {
                    if ev.kind <= EV_READ_WORD || stores {
                        let cost = feed_below(caches, ev.kind, ev.addr, stats);
                        cycles = cycles.saturating_add(cost);
                    }
                }
                self.events.len() as u64
            }
        };
        self.count_walk(walked);
        cycles
    }

    /// The ordered replay engine: reconstructs the target machine's cycle
    /// counter event by event — inter-event deltas are
    /// hierarchy-independent by construction (every hierarchy-dependent
    /// cost *is* an event), access costs are recomputed by driving the
    /// target's concrete tag stores and store buffer, and the
    /// per-instruction `now` latch is replayed at its recorded position
    /// so store-buffer arrival times and cycle-register values match a
    /// fresh simulation exactly.
    fn replay_ordered(&self, hierarchy: &MemHierarchyConfig) -> Result<(u64, MemStats), SimError> {
        let mut stats = self.stats_template.clone();
        let mut caches = HierarchyCaches::new(hierarchy.clone());
        let mut cycles = 0u64;
        let mut now = 0u64;
        for ev in &self.events {
            cycles = cycles.saturating_add(ev.delta_before as u64);
            if ev.latched {
                now = cycles;
            }
            cycles = cycles.saturating_add(ev.delta_after as u64);
            let cost = match ev.kind {
                EV_FETCH..=EV_READ_WORD => {
                    let (kind, width) = READS[ev.kind as usize];
                    caches.read(ev.addr, kind, width, &mut stats).0
                }
                EV_WRITE_BYTE..=EV_WRITE_WORD => {
                    let width = AccessWidth::ALL[(ev.kind - EV_WRITE_BYTE) as usize];
                    caches.write(ev.addr, width, now, &mut stats)
                }
                _ => {
                    // A cycle-register read: the recorded value is only
                    // valid if the target hierarchy reaches it at the
                    // same cycle.
                    if now as u32 != ev.addr {
                        return Err(SimError::ReplayDivergence {
                            recorded: ev.addr,
                            replayed: now as u32,
                        });
                    }
                    1
                }
            };
            cycles = cycles.saturating_add(cost);
        }
        Ok((cycles.saturating_add(self.tail_cycles), stats))
    }

    fn write_cycles(&self, main: &MainMemoryTiming) -> u64 {
        let widths = self.main_writes.iter().zip(AccessWidth::ALL);
        widths.fold(0, |c, (&n, w)| {
            c.saturating_add(n.saturating_mul(main.access(w)))
        })
    }

    /// Serializes the trace (header, counters, statistics template, then
    /// the event stream) into a self-describing little-endian byte
    /// stream. [`MemTrace::from_bytes`] round-trips it exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 2 + 28 * 8 + self.events.len() * EVENT_BYTES);
        out.extend_from_slice(TRACE_MAGIC);
        out.push(TRACE_VERSION);
        for v in self.header_words() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for ev in &self.events {
            out.extend_from_slice(&ev.addr.to_le_bytes());
            out.push(ev.kind);
            out.push(ev.latched as u8);
            out.extend_from_slice(&ev.delta_before.to_le_bytes());
            out.extend_from_slice(&ev.delta_after.to_le_bytes());
        }
        out
    }

    fn header_words(&self) -> [u64; 30] {
        let s = &self.stats_template;
        [
            self.max_cycles,
            self.base_cycles,
            self.tail_cycles,
            self.cycle_reads,
            self.read_counts[0],
            self.read_counts[1],
            self.read_counts[2],
            self.main_writes[0],
            self.main_writes[1],
            self.main_writes[2],
            s.spm[0],
            s.spm[1],
            s.spm[2],
            s.main[0],
            s.main[1],
            s.main[2],
            s.mmio,
            s.cache_hits,
            s.cache_misses,
            s.fill_words,
            s.write_throughs,
            s.write_backs,
            s.dirty_evictions,
            s.store_buffer_stalls,
            s.l1i_hits,
            s.l1i_misses,
            s.l1d_hits,
            s.l1d_misses,
            s.l2_hits,
            s.l2_misses,
        ]
    }

    /// Decodes a serialized trace. Fully bounds-checked: arbitrary or
    /// truncated input returns a typed [`TraceError`], never panics, and
    /// never allocates more than the input length implies.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] for non-trace input,
    /// [`TraceError::UnsupportedVersion`] for any version byte but 2,
    /// [`TraceError::Truncated`] / [`TraceError::Corrupt`] for streams
    /// that end early or declare impossible contents, among them a header
    /// whose cycle-register reads, reads by width or writes by width
    /// disagree with its events.
    pub fn from_bytes(bytes: &[u8]) -> Result<MemTrace, TraceError> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], TraceError> {
            let have = bytes.len() - *at;
            if have < n {
                return Err(TraceError::Truncated { need: n, have });
            }
            let s = &bytes[*at..*at + n];
            *at += n;
            Ok(s)
        };
        if take(&mut at, 8)? != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = take(&mut at, 1)?[0];
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let mut words = [0u64; 30];
        for w in &mut words {
            let b = take(&mut at, 8)?;
            *w = u64::from_le_bytes(b.try_into().expect("8-byte slice"));
        }
        let count = u64::from_le_bytes(take(&mut at, 8)?.try_into().expect("8-byte slice"));
        let remaining = bytes.len() - at;
        let payload = (count as usize).checked_mul(EVENT_BYTES);
        if count > usize::MAX as u64 || payload != Some(remaining) {
            return Err(TraceError::Corrupt("event count does not match payload"));
        }
        let mut events = Vec::with_capacity(count as usize);
        // Events of each kind, to check the header's counts against.
        let mut kinds = [0u64; EV_KIND_MAX as usize + 1];
        for _ in 0..count {
            let b = take(&mut at, EVENT_BYTES)?;
            let kind = b[4];
            if kind > EV_KIND_MAX {
                return Err(TraceError::Corrupt("unknown event kind"));
            }
            if b[5] > 1 {
                return Err(TraceError::Corrupt("latch flag out of range"));
            }
            kinds[kind as usize] += 1;
            events.push(AccessEvent {
                addr: u32::from_le_bytes(b[0..4].try_into().expect("4-byte slice")),
                kind,
                latched: b[5] == 1,
                delta_before: u32::from_le_bytes(b[6..10].try_into().expect("4-byte slice")),
                delta_after: u32::from_le_bytes(b[10..14].try_into().expect("4-byte slice")),
            });
        }
        // A fetch is a halfword read.
        let [fetches, read_bytes, read_halves, read_words, write_bytes, write_halves, write_words, cycle_reads] =
            kinds;
        if words[3] != cycle_reads
            || words[4..7] != [read_bytes, fetches + read_halves, read_words]
            || words[7..10] != [write_bytes, write_halves, write_words]
        {
            return Err(TraceError::Corrupt(
                "header counts disagree with the events",
            ));
        }
        let stats_template = MemStats {
            spm: [words[10], words[11], words[12]],
            main: [words[13], words[14], words[15]],
            mmio: words[16],
            cache_hits: words[17],
            cache_misses: words[18],
            fill_words: words[19],
            write_throughs: words[20],
            write_backs: words[21],
            dirty_evictions: words[22],
            store_buffer_stalls: words[23],
            l1i_hits: words[24],
            l1i_misses: words[25],
            l1d_hits: words[26],
            l1d_misses: words[27],
            l2_hits: words[28],
            l2_misses: words[29],
        };
        Ok(MemTrace {
            events,
            base_cycles: words[1],
            tail_cycles: words[2],
            cycle_reads: words[3],
            read_counts: [words[4], words[5], words[6]],
            main_writes: [words[7], words[8], words[9]],
            stats_template,
            max_cycles: words[0],
            runs: None,
        })
    }
}

/// Runs `exe` on the **uncached** machine (the recording reference),
/// returning the full simulation result plus the recorded trace.
///
/// # Errors
///
/// Any [`SimError`] of the underlying run, and [`SimError::Watchdog`]
/// when two consecutive main-memory events lie more than `u32::MAX`
/// cycles apart (beyond the default watchdog limit anyway).
pub fn simulate_with_trace(
    exe: &Executable,
    options: &SimOptions,
) -> Result<(SimResult, MemTrace), SimError> {
    let (result, recorder) = crate::machine::simulate_recorded(exe, options)?;
    let trace = recorder.into_trace(result.cycles, &result.mem_stats, options.max_cycles)?;
    Ok((result, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{simulate, SimOptions};
    use crate::MachineConfig;
    use spmlab_cc::{compile, link, SpmAssignment};
    use spmlab_isa::cachecfg::CacheConfig;
    use spmlab_isa::hierarchy::{StoreBuffer, L1};
    use spmlab_isa::mem::MemoryMap;

    const SRC: &str = "
        int a[40]; int checksum;
        void main() {
            int i;
            for (i = 0; i < 40; i = i + 1) { __loopbound(40); a[i] = i * 3; }
            for (i = 0; i < 40; i = i + 1) { __loopbound(40); checksum = checksum + a[i]; }
        }
    ";

    fn hierarchies() -> Vec<MemHierarchyConfig> {
        vec![
            MemHierarchyConfig::uncached(),
            MemHierarchyConfig::uncached_with(MainMemoryTiming::dram(10)),
            MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
            MemHierarchyConfig::l1_only(CacheConfig::instr_only(512)),
            MemHierarchyConfig::split_l1(256, 256),
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048)),
            MemHierarchyConfig::l1_only(CacheConfig::instr_only(256))
                .with_l2(CacheConfig::l2(1024)),
            MemHierarchyConfig::split_l1(256, 256)
                .with_l2(CacheConfig::l2(2048))
                .with_main(MainMemoryTiming::dram(8)),
        ]
    }

    /// Write-policy-dependent shapes: write-back levels, store buffers,
    /// and mixed WT-over-WB stacks.
    fn write_policy_dependent_hierarchies() -> Vec<MemHierarchyConfig> {
        vec![
            MemHierarchyConfig::l1_only(CacheConfig::unified(256).write_back()),
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048).write_back()),
            MemHierarchyConfig::l1_only(CacheConfig::unified(128).write_back())
                .with_l2(CacheConfig::l2(1024).write_back()),
            MemHierarchyConfig::uncached_with(
                MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 6)),
            ),
            MemHierarchyConfig::l1_only(CacheConfig::unified(256))
                .with_main(MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(2, 8))),
            MemHierarchyConfig::split_l1(128, 128)
                .with_l2(CacheConfig::l2(1024).write_back())
                .with_main(MainMemoryTiming::dram(8)),
        ]
    }

    /// The headline invariant of the replay: bit-identical cycles and
    /// memory statistics versus a fresh simulation, for every hierarchy
    /// shape.
    #[test]
    fn replay_matches_full_simulation_exactly() {
        let l = link(
            &compile(SRC).unwrap(),
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
        )
        .unwrap();
        let options = SimOptions {
            insn_stats: false,
            profile: false,
            ..SimOptions::default()
        };
        let (recorded, trace) = simulate_with_trace(&l.exe, &options).unwrap();
        assert!(trace.events() > 0);
        for h in hierarchies() {
            let (cycles, stats) = trace.replay(&h).unwrap();
            let fresh =
                simulate(&l.exe, &MachineConfig::with_hierarchy(h.clone()), &options).unwrap();
            assert_eq!(cycles, fresh.cycles, "{}: cycles diverged", h.label());
            assert_eq!(stats, fresh.mem_stats, "{}: stats diverged", h.label());
        }
        // The recording itself is the uncached result.
        let uncached = simulate(&l.exe, &MachineConfig::uncached(), &options).unwrap();
        assert_eq!(recorded.cycles, uncached.cycles);
    }

    /// The ordered stream replays write-back and
    /// store-buffered machines bit-identically, including every
    /// write-policy statistic.
    #[test]
    fn replay_matches_write_policy_dependent_machines_exactly() {
        let l = link(
            &compile(SRC).unwrap(),
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
        )
        .unwrap();
        let options = SimOptions {
            insn_stats: false,
            profile: false,
            ..SimOptions::default()
        };
        let (_, trace) = simulate_with_trace(&l.exe, &options).unwrap();
        for h in write_policy_dependent_hierarchies() {
            let (cycles, stats) = trace.replay(&h).unwrap();
            let fresh =
                simulate(&l.exe, &MachineConfig::with_hierarchy(h.clone()), &options).unwrap();
            assert_eq!(cycles, fresh.cycles, "{}: cycles diverged", h.label());
            assert_eq!(stats, fresh.mem_stats, "{}: stats diverged", h.label());
        }
    }

    /// Reading the MMIO cycle register no longer poisons the trace: the
    /// recorded values replay under hierarchies that reproduce the same
    /// timing, and divergence is a typed error elsewhere.
    #[test]
    fn cycle_register_reads_replay_recorded_values() {
        let exe = crate::cycle_reader::cycle_reader();
        let (recorded, trace) = simulate_with_trace(&exe, &SimOptions::default()).unwrap();
        assert!(trace.cycle_reads() > 0);
        // Same timing as the recording machine: values match, replay
        // succeeds bit-identically.
        let (cycles, _) = trace.replay(&MemHierarchyConfig::uncached()).unwrap();
        assert_eq!(cycles, recorded.cycles);
        assert!(!trace.priceable(&MemHierarchyConfig::uncached()));
        // Different timing: the recorded value is stale — typed
        // divergence, so sweeps can fall back to full simulation.
        let slow = MemHierarchyConfig::uncached_with(MainMemoryTiming::dram(10));
        assert!(matches!(
            trace.replay(&slow),
            Err(SimError::ReplayDivergence { .. })
        ));
    }

    /// Byte-stream round trip: cycles, stats, events and metadata are
    /// preserved exactly.
    #[test]
    fn trace_bytes_round_trip() {
        let l = link(
            &compile(SRC).unwrap(),
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
        )
        .unwrap();
        let (_, trace) = simulate_with_trace(&l.exe, &SimOptions::default()).unwrap();
        let decoded = MemTrace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(decoded.events, trace.events);
        assert_eq!(decoded.stats_template, trace.stats_template);
        for h in hierarchies()
            .into_iter()
            .chain(write_policy_dependent_hierarchies())
        {
            assert_eq!(
                decoded.replay(&h).unwrap(),
                trace.replay(&h).unwrap(),
                "{}: decoded trace diverged",
                h.label()
            );
        }
    }

    /// What a tally of `t` under `h` determines: its cycles, main-memory
    /// transactions and statistics.
    fn tally(t: &MemTrace, h: &MemHierarchyConfig) -> (u64, u64, MemStats) {
        let tally = t.tally(h, &mut Vec::new());
        (tally.cycles, tally.transactions, tally.stats)
    }

    /// The run index skips accesses on the recorded kernel and accounts
    /// for every fetch and read under each rule; a stream it cannot
    /// describe — an address too wide for an entry — tallies as the
    /// per-event walk does.
    #[test]
    fn run_index_accounts_for_every_read_and_falls_back_when_it_cannot() {
        let l = link(
            &compile(SRC).unwrap(),
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
        )
        .unwrap();
        let (_, trace) = simulate_with_trace(&l.exe, &SimOptions::default()).unwrap();
        let reads = trace.read_counts.iter().sum::<u64>();
        let runs =
            RunIndex::build(&trace.events, Stores::Left).expect("the recording is indexable");
        assert!(runs.heads.len() < reads as usize);
        for rule in [RunRule::SameStream, RunRule::Shared] {
            let elided = runs.elided[rule as usize].iter().sum::<u64>();
            assert!(elided > 0, "{rule:?} skips nothing");
            assert_eq!(runs.walked[rule as usize] + elided, reads, "{rule:?}");
        }

        let mut wide = trace;
        let read = wide.events.iter().position(|e| e.kind == EV_READ_WORD);
        wide.events[read.expect("the kernel reads")].addr = RUN_ADDR_MASK + 1;
        let machines = [
            MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048)),
            MemHierarchyConfig::l1_only(CacheConfig::unified(256).write_back()),
        ];
        let indexed = wide.clone().with_run_index();
        for h in &machines {
            assert_eq!(tally(&indexed, h), tally(&wide, h), "{}", h.label());
        }
        for runs in indexed.runs.as_ref().expect("opted in") {
            assert!(matches!(runs.get(), Some(None)));
        }
    }

    /// A trace recorded from `(kind, addr)` events, back to back on the
    /// uncached machine.
    fn hand_trace(events: &[(u8, u32)]) -> MemTrace {
        let main = MainMemoryTiming::table1();
        let mut rec = TraceRecorder::default();
        let mut at = 0;
        for &(kind, addr) in events {
            rec.at(at);
            match kind {
                EV_FETCH..=EV_READ_WORD => {
                    let (kind, width) = READS[kind as usize];
                    rec.record_read(addr, kind, width, main.access(width));
                    at += main.access(width);
                }
                _ => {
                    let width = AccessWidth::ALL[(kind - EV_WRITE_BYTE) as usize];
                    rec.record_write(addr, width, main.access(width));
                    at += main.access(width);
                }
            }
        }
        rec.into_trace(at, &MemStats::default(), u64::MAX)
            .expect("no gaps")
    }

    /// The write-back run index on a hand-built stream: a write that may
    /// dirty a clean line is kept, every later access to the run's line
    /// is skipped, each rule accounts for every access, and the
    /// write-through index on the same stream holds no write.
    #[test]
    fn write_back_run_index_keeps_each_runs_first_write() {
        let (f, a, b) = (0x100, 0x2000, 0x2010);
        let events = [
            (EV_FETCH, f),
            (EV_READ_WORD, a),
            (EV_FETCH, f + 2),
            (EV_WRITE_WORD, a + 4),
            (EV_WRITE_BYTE, a + 8),
            (EV_READ_HALF, a + 2),
            (EV_WRITE_HALF, b),
            (EV_READ_WORD, b + 4),
            (EV_WRITE_WORD, b + 8),
        ];
        let trace = hand_trace(&events);
        let runs = RunIndex::build(&trace.events, Stores::Walked).expect("indexable");
        let entry = |i: usize, same_stream: bool, shared: bool| {
            let (kind, addr) = events[i];
            let mut head = addr | u32::from(kind) << RUN_ADDR_BITS;
            for (skips, rule) in [
                (same_stream, RunRule::SameStream),
                (shared, RunRule::Shared),
            ] {
                if skips {
                    head |= rule.skip_bit();
                }
            }
            head
        };
        // The data stream reads `a`, then writes it twice and reads it:
        // the first write is kept (it dirties the line), the rest are
        // hits on a dirty line. A run headed by a write (`b`) keeps its
        // head only. The second fetch of `f` hits under the same-stream
        // rule only: under the shared rule the read of `a` came between.
        assert_eq!(
            runs.heads,
            [
                entry(0, false, false),
                entry(1, false, false),
                entry(2, true, false),
                entry(3, false, false),
                entry(6, false, false),
            ]
        );
        assert_eq!(runs.walked, [4, 5]);
        assert_eq!(runs.elided, [[1, 2, 2], [0, 2, 2]]);
        let accesses = trace
            .read_counts
            .iter()
            .chain(&trace.main_writes)
            .sum::<u64>();
        for rule in [RunRule::SameStream, RunRule::Shared] {
            let elided = runs.elided[rule as usize].iter().sum::<u64>();
            assert_eq!(runs.walked[rule as usize] + elided, accesses, "{rule:?}");
        }

        let through = RunIndex::build(&trace.events, Stores::Left).expect("indexable");
        assert!(through
            .heads
            .iter()
            .all(|&h| (h >> RUN_ADDR_BITS) as u8 & 7 <= EV_READ_WORD));
        let reads = trace.read_counts.iter().sum::<u64>();
        for rule in [RunRule::SameStream, RunRule::Shared] {
            let [fetches, reads_elided, writes] = through.elided[rule as usize];
            assert_eq!(writes, 0, "{rule:?}");
            assert_eq!(
                through.walked[rule as usize] + fetches + reads_elided,
                reads
            );
        }
    }

    /// Write-back tallies through the run index equal the per-event walk
    /// on a stream whose dirtied lines are evicted again — on unified
    /// and split, direct-mapped and two-way L1s, with and without a
    /// write-back L2 — and write-back machines whose stores an L2 absorbs,
    /// or whose L1 lines are short, never build the index.
    #[test]
    fn write_back_run_index_tallies_match_the_per_event_walk() {
        // 0x2000 and 0x2040 share a set of a 64-byte direct-mapped L1 and
        // the two-way one's set with 0x2080.
        let mut events = Vec::new();
        for round in 0..3u32 {
            for line in [0x2000, 0x2040, 0x2080] {
                events.extend([
                    (EV_FETCH, 0x100 + 4 * round),
                    (EV_READ_WORD, line),
                    (EV_WRITE_WORD, line + 4),
                    (EV_FETCH, 0x102 + 4 * round),
                    (EV_WRITE_BYTE, line + 9),
                    (EV_READ_HALF, line + 2),
                ]);
            }
            events.push((EV_WRITE_HALF, 0x20c0 + 16 * round));
        }
        let trace = hand_trace(&events);
        let split = |d: CacheConfig| MemHierarchyConfig {
            l1: L1::Split {
                i: Some(CacheConfig::instr_only(64)),
                d: Some(CacheConfig {
                    scope: spmlab_isa::cachecfg::CacheScope::DataOnly,
                    ..d
                }),
            },
            ..MemHierarchyConfig::uncached()
        };
        let direct = CacheConfig::unified(64).write_back();
        let two_way =
            CacheConfig::set_assoc(64, 2, spmlab_isa::cachecfg::Replacement::Lru).write_back();
        let l2 = CacheConfig::l2(128).write_back();
        for (h, evicts_to_main) in [
            (MemHierarchyConfig::l1_only(direct.clone()), true),
            (MemHierarchyConfig::l1_only(two_way.clone()), true),
            (split(direct.clone()), true),
            (split(two_way.clone()), true),
            (
                MemHierarchyConfig::l1_only(direct.clone()).with_l2(l2.clone()),
                false,
            ),
            (split(two_way).with_l2(l2.clone()), false),
        ] {
            let indexed = trace.clone().with_run_index();
            let fast = tally(&indexed, &h);
            assert_eq!(fast, tally(&trace, &h), "{}", h.label());
            assert!(fast.2.dirty_evictions > 0, "{}", h.label());
            if evicts_to_main {
                assert!(fast.2.write_backs > 0, "{}", h.label());
            }
            let runs = indexed.runs.as_ref().expect("opted in");
            assert!(runs[Stores::Left as usize].get().is_none());
            let index = runs[Stores::Walked as usize].get();
            let index = index.and_then(Option::as_ref).expect("built");
            assert!(index.heads.len() < events.len(), "{}", h.label());
        }
        for h in [
            MemHierarchyConfig::split_l1(64, 64).with_l2(l2),
            MemHierarchyConfig::l1_only(CacheConfig { line: 8, ..direct }),
        ] {
            let indexed = trace.clone().with_run_index();
            assert_eq!(tally(&indexed, &h), tally(&trace, &h), "{}", h.label());
            let runs = indexed.runs.as_ref().expect("opted in");
            assert!(runs.iter().all(|r| r.get().is_none()), "{}", h.label());
        }
    }

    /// A gap between two events beyond the 32-bit delta is a typed error,
    /// not a trace; a gap of exactly `u32::MAX` cycles still records.
    #[test]
    fn recorder_gap_beyond_u32_is_a_typed_error() {
        let record = |gap: u64| {
            let mut rec = TraceRecorder::default();
            rec.at(0);
            rec.record_read(0x100, AccessKind::Read, AccessWidth::Word, 4);
            rec.at(4 + gap);
            rec.record_read(0x104, AccessKind::Read, AccessWidth::Word, 4);
            rec.into_trace(8 + gap, &MemStats::default(), u64::MAX)
        };
        let edge = record(u64::from(u32::MAX)).expect("a u32::MAX gap fits");
        assert_eq!(edge.events[1].delta_after, u32::MAX);
        let over = u64::from(u32::MAX) + 1;
        assert!(matches!(
            record(over),
            Err(SimError::Watchdog { cycles }) if cycles == 8 + over
        ));
    }

    /// Decoding errors are typed, never panics.
    #[test]
    fn from_bytes_rejects_malformed_input() {
        assert_eq!(MemTrace::from_bytes(b"nonsense"), Err(TraceError::BadMagic));
        assert!(matches!(
            MemTrace::from_bytes(b"SPM"),
            Err(TraceError::Truncated { .. })
        ));
        let mut versioned = TRACE_MAGIC.to_vec();
        versioned.push(9);
        assert_eq!(
            MemTrace::from_bytes(&versioned),
            Err(TraceError::UnsupportedVersion { found: 9 })
        );
    }
}
