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
//! [`MemTrace::replay`] then prices the recorded sequence under any
//! [`MemHierarchyConfig`] by driving the *same* concrete tag stores
//! ([`HierarchyCaches`]) the interpreter would have used — dirty bits,
//! eviction write-backs, write-allocate installs and store-buffer drain
//! timing included — making the replayed cycle count and statistics
//! bit-identical to a fresh simulation while skipping instruction decode
//! and execution entirely. An eight-point sweep costs one interpretation
//! plus eight cheap replays instead of eight interpretations.
//!
//! ## Pricing main-memory latencies
//!
//! Without a store buffer and without cycle-register reads, every cost
//! that reaches main memory is `latency + beats * beat_cycles` and every
//! other cost and statistic depends on the tag stores only. So
//! [`MemTrace::tally`] walks the stream once per cache geometry at
//! latency 0, counting main-memory transactions, and [`Tally::price`]
//! yields the exact result at any latency as `cycles(0) + latency *
//! transactions`. [`MemTrace::replay`] is "tally, then price" for every
//! such machine; the ordered engine serves the rest.
//!
//! ## Skipping guaranteed first-level hits
//!
//! Most fetches and many reads touch the line their cache touched last.
//! A trace opted in with [`MemTrace::with_run_index`] builds, on its first
//! tally, a run index: one pass over the events at 16-byte line
//! granularity that keeps every fetch or read at least one of two rules
//! cannot skip, and counts per rule and kind the events it can:
//!
//! * *same-stream*: a fetch to the previous fetch's line, or a read to
//!   the previous read's line — used when a split L1 gives each kind a
//!   cache of its own;
//! * *shared*: a fetch or read to the previous fetch-or-read's line —
//!   used when both kinds reach one first cache (a unified L1, or an L2
//!   with no L1 in front).
//!
//! Write-through tallies (`!write_policy_dependent()`) whose first-level
//! lines are all at least 16 bytes then walk only the index entries
//! their rule keeps and credit the rest as first-level hits
//! (`HierarchyCaches::credit_hits`). That is exact: a skipped access
//! hits the most recently used line of a cache that saw nothing else in
//! between (write-through stores touch no tag store), and such a hit
//! changes no state — LRU order stays (ticks are only compared within a
//! set), and round-robin and random replacement act on misses only.
//! Every other tally — scoped unified L1s, write-back machines, shorter
//! lines, traces without an index or whose index could not be built —
//! walks every event.
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

use crate::hierarchy::HierarchyCaches;
use crate::machine::{SimOptions, SimResult};
use crate::memsys::{AccessKind, MemStats};
use crate::SimError;
use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig};
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
    /// The run index, built by the first tally that can use it; `None`
    /// unless opted in with [`MemTrace::with_run_index`]. The inner
    /// `None` marks a stream the index cannot describe. Derived from
    /// `events`: neither compared nor serialized.
    runs: Option<OnceLock<Option<RunIndex>>>,
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

/// Which accesses a tally may skip as guaranteed first-level hits (see
/// the module docs).
#[derive(Debug, Clone, Copy)]
enum RunRule {
    /// A split L1: each kind's first cache sees only that kind.
    SameStream = 0,
    /// Fetches and reads share their first cache.
    Shared = 1,
}

impl RunRule {
    /// The line granularity both rules compare at: every first-level
    /// line the index serves is at least this long.
    const LINE: u32 = 16;

    /// The rule that is exact for `hierarchy`'s write-through tally, if
    /// any.
    fn for_machine(hierarchy: &MemHierarchyConfig) -> Option<RunRule> {
        if hierarchy.write_policy_dependent() {
            return None;
        }
        let long = |c: &spmlab_isa::cachecfg::CacheConfig| c.line >= RunRule::LINE;
        match (hierarchy.l1_for(true), hierarchy.l1_for(false)) {
            (Some(i), Some(d)) if long(i) && long(d) => Some(if hierarchy.l1_unified() {
                RunRule::Shared
            } else {
                RunRule::SameStream
            }),
            (None, None) => hierarchy
                .l2
                .as_ref()
                .filter(|c| long(c))
                .map(|_| RunRule::Shared),
            _ => None,
        }
    }

    /// The entry bit marking an access this rule skips.
    fn skip_bit(self) -> u32 {
        1 << (RUN_ADDR_BITS + 2 + self as u32)
    }
}

/// The fetches and reads of a trace that at least one [`RunRule`] cannot
/// skip, in program order, plus what each rule skips.
#[derive(Debug, Clone)]
struct RunIndex {
    /// One entry per kept access: the address in the low
    /// [`RUN_ADDR_BITS`] bits, the event kind (`EV_FETCH` …
    /// `EV_READ_WORD`) in the next two, then one skip bit per rule.
    heads: Vec<u32>,
    /// Entries each rule walks.
    walked: [u64; 2],
    /// Accesses each rule skips, by rule, then fetches and reads.
    elided: [[u64; 2]; 2],
}

impl RunIndex {
    /// Indexes `events`; `None` when an event is a cycle-register read
    /// or a fetch or read whose address does not fit an entry — streams
    /// the per-event walk must judge.
    fn build(events: &[AccessEvent]) -> Option<RunIndex> {
        const NONE: u32 = u32::MAX;
        let mut heads = Vec::new();
        let mut walked = [0u64; 2];
        let mut elided = [[0u64; 2]; 2];
        // The last line fetched, read, and either.
        let mut last = [NONE; 2];
        let mut last_any = NONE;
        for ev in events {
            let data = match ev.kind {
                EV_FETCH => 0,
                EV_READ_BYTE..=EV_READ_WORD => 1,
                EV_WRITE_BYTE..=EV_WRITE_WORD => continue,
                _ => return None,
            };
            if ev.addr > RUN_ADDR_MASK {
                return None;
            }
            let line = ev.addr / RunRule::LINE;
            let skips = [last[data] == line, last_any == line];
            last[data] = line;
            last_any = line;
            let mut head = ev.addr | u32::from(ev.kind) << RUN_ADDR_BITS;
            for rule in [RunRule::SameStream, RunRule::Shared] {
                if skips[rule as usize] {
                    elided[rule as usize][data] += 1;
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
        })
    }
}

/// One walk of a trace through one cache geometry at main-memory latency
/// 0 ([`MemTrace::tally`]): the latency-0 cycles, the main-memory
/// transactions, and the memory statistics — which do not depend on the
/// latency at all. [`Tally::price`] turns it into the result at any
/// latency.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Cycles at main-memory latency 0.
    cycles: u64,
    /// Main-memory transactions, each paying the setup latency once.
    transactions: u64,
    stats: MemStats,
    /// The tallied main-memory timing, latency zeroed.
    main: MainMemoryTiming,
    /// Watchdog limit the recording ran under.
    max_cycles: u64,
}

impl Tally {
    /// Main-memory transactions: the slope of the cycle count in
    /// `main.latency`.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// The cycles and memory statistics under `main`, which must match
    /// the tallied timing in everything but `latency`:
    /// `cycles(L) = cycles(0) + L * transactions`, exactly.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when the priced cycle count exceeds the
    /// recording's limit.
    ///
    /// # Panics
    ///
    /// When `main` differs from the tallied timing in anything but
    /// `latency` — a tally prices one cache geometry and bus only.
    pub fn price(&self, main: &MainMemoryTiming) -> Result<(u64, MemStats), SimError> {
        assert_eq!(
            MainMemoryTiming {
                latency: 0,
                ..*main
            },
            self.main,
            "a tally prices only main-memory latencies of its own machine"
        );
        let cycles = self
            .cycles
            .saturating_add(main.latency.saturating_mul(self.transactions));
        if cycles > self.max_cycles {
            return Err(SimError::Watchdog { cycles });
        }
        Ok((cycles, self.stats.clone()))
    }
}

impl MemTrace {
    /// Always `true`: every trace replays under every hierarchy. Kept
    /// only because `perfbench/` still calls it; the benchmark change
    /// that deletes those calls (ROADMAP item (c)) deletes this too.
    pub fn replayable(&self) -> bool {
        true
    }

    /// Always `true`: every trace prices every hierarchy. Kept only
    /// because `perfbench/` still calls it; the benchmark change that
    /// deletes those calls (ROADMAP item (c)) deletes this too.
    pub fn supports(&self, _hierarchy: &MemHierarchyConfig) -> bool {
        true
    }

    /// Opts this trace into run-indexed tallies: the first
    /// [`MemTrace::tally`] that can use the index builds it (at most 4
    /// bytes per fetch or read), and every write-through tally with
    /// first-level lines of at least 16 bytes then skips the guaranteed
    /// first-level hits (see the module docs). Worth it for a trace
    /// tallied many times, such as a sweep's baseline; results are
    /// bit-identical either way.
    pub fn with_run_index(mut self) -> MemTrace {
        self.runs = Some(OnceLock::new());
        self
    }

    /// The run index and the rule `hierarchy` may skip by, when this
    /// trace is opted in and both exist.
    fn run_index(&self, hierarchy: &MemHierarchyConfig) -> Option<(&RunIndex, RunRule)> {
        let rule = RunRule::for_machine(hierarchy)?;
        let runs = self.runs.as_ref()?;
        let runs = runs.get_or_init(|| RunIndex::build(&self.events));
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

    /// Whether `hierarchy` can be priced from one latency-0 [`Tally`]: no
    /// store buffer sits in front of main memory
    /// (its drain timing depends on arrival times, which move with the
    /// latency) and the program never read the cycle register (whose
    /// recorded values would move too). Every such machine's cycle count
    /// is affine in `main.latency` with the tally's slope.
    pub fn priceable(&self, hierarchy: &MemHierarchyConfig) -> bool {
        self.cycle_reads == 0 && hierarchy.main.store_buffer.is_none()
    }

    /// Prices the recorded execution under `hierarchy`, returning the
    /// total cycles and the memory statistics — bit-identical to running
    /// [`simulate`](crate::machine::simulate) under the same
    /// configuration. [`MemTrace::priceable`] machines take one
    /// [`MemTrace::tally`] and [`Tally::price`]; store-buffered machines
    /// and timing-dependent programs take the ordered replay engine.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when the replayed cycle count exceeds the
    /// recording's limit; [`SimError::ReplayDivergence`] when a recorded
    /// MMIO cycle-register value differs under the target hierarchy's
    /// timing, which callers should treat as "fall back to full
    /// simulation", not as fatal; [`SimError::Fault`] for a corrupt event
    /// kind.
    pub fn replay(&self, hierarchy: &MemHierarchyConfig) -> Result<(u64, MemStats), SimError> {
        if self.priceable(hierarchy) {
            return self.tally(hierarchy)?.price(&hierarchy.main);
        }
        let _span = spmlab_obs::span("replay");
        if spmlab_obs::enabled() {
            spmlab_obs::counter("replay_events", self.events.len() as u64);
        }
        let (cycles, stats) = self.replay_ordered(hierarchy)?;
        if cycles > self.max_cycles {
            return Err(SimError::Watchdog { cycles });
        }
        Ok((cycles, stats))
    }

    /// Walks the recorded stream once through `hierarchy`'s tag stores at
    /// main-memory latency 0, counting the main-memory transactions. The
    /// resulting [`Tally`] prices every machine that differs from
    /// `hierarchy` only in `main.latency` (see [`Tally::price`]).
    ///
    /// Write-through stores never touch a tag store and each cost one
    /// main write, so they are priced from the per-width counters;
    /// write-back machines replay the write
    /// events in program order. An uncached machine walks nothing at all,
    /// and a run-indexed trace walks only the fetches and reads that are
    /// not guaranteed first-level hits (see [`MemTrace::with_run_index`]).
    /// The `replay_events` counter reports the events or index entries
    /// the walk visited, `replay_elided` the events it skipped.
    ///
    /// # Errors
    ///
    /// [`SimError::Fault`] when the machine is not
    /// [`MemTrace::priceable`], or when the stream holds a cycle-register
    /// read its header does not declare.
    pub fn tally(&self, hierarchy: &MemHierarchyConfig) -> Result<Tally, SimError> {
        let _span = spmlab_obs::span("replay");
        if !self.priceable(hierarchy) {
            return Err(SimError::Fault {
                pc: 0,
                addr: 0,
                what: "store-buffered machines and timing-dependent programs cannot be \
                       priced from a tally",
            });
        }
        let main = MainMemoryTiming {
            latency: 0,
            ..hierarchy.main
        };
        let mut stats = self.stats_template.clone();
        let mut cycles = self.base_cycles;
        let mut transactions = 0u64;
        let ordered_writes = hierarchy.write_policy_dependent();
        if !ordered_writes {
            cycles = cycles.saturating_add(self.write_cycles(&main));
            transactions = self.main_writes.iter().fold(0, |a, &n| a.saturating_add(n));
            if hierarchy.l1_for(false).is_some() || hierarchy.l2.is_some() {
                stats.write_throughs = transactions;
            }
        }
        if hierarchy.l1_for(true).is_some()
            || hierarchy.l1_for(false).is_some()
            || hierarchy.l2.is_some()
        {
            let mut caches = HierarchyCaches::new(MemHierarchyConfig {
                main,
                ..hierarchy.clone()
            });
            let walked = match self.run_index(hierarchy) {
                Some((runs, rule)) => {
                    let skip = rule.skip_bit();
                    for &head in &runs.heads {
                        if head & skip == 0 {
                            let (kind, width) = READS[(head >> RUN_ADDR_BITS) as usize & 3];
                            let cost = caches.read(head & RUN_ADDR_MASK, kind, width, &mut stats).0;
                            cycles = cycles.saturating_add(cost);
                        }
                    }
                    let [fetches, reads] = runs.elided[rule as usize];
                    for (kind, count) in [(AccessKind::Fetch, fetches), (AccessKind::Read, reads)] {
                        cycles = cycles.saturating_add(caches.credit_hits(kind, count, &mut stats));
                    }
                    runs.walked[rule as usize]
                }
                None => {
                    for ev in &self.events {
                        let cost = match ev.kind {
                            EV_FETCH..=EV_READ_WORD => {
                                let (kind, width) = READS[ev.kind as usize];
                                caches.read(ev.addr, kind, width, &mut stats).0
                            }
                            // Write-through stores are already priced from
                            // the counters above.
                            EV_WRITE_BYTE..=EV_WRITE_WORD if ordered_writes => {
                                let width = AccessWidth::ALL[(ev.kind - EV_WRITE_BYTE) as usize];
                                caches.write(ev.addr, width, 0, &mut stats)
                            }
                            EV_WRITE_BYTE..=EV_WRITE_WORD => continue,
                            _ => {
                                return Err(SimError::Fault {
                                    pc: 0,
                                    addr: ev.addr,
                                    what: "undeclared cycle-register read in a trace",
                                })
                            }
                        };
                        cycles = cycles.saturating_add(cost);
                    }
                    self.events.len() as u64
                }
            };
            if spmlab_obs::enabled() {
                spmlab_obs::counter("replay_events", walked);
                let elided = self.events.len() as u64 - walked;
                if elided > 0 {
                    spmlab_obs::counter("replay_elided", elided);
                }
            }
            transactions = transactions.saturating_add(caches.main_transactions());
        } else {
            // Uncached: every read is one main access at its width,
            // priced from the counters without touching the stream.
            let widths = [AccessWidth::Byte, AccessWidth::Half, AccessWidth::Word];
            for (w, &width) in widths.iter().enumerate() {
                cycles =
                    cycles.saturating_add(self.read_counts[w].saturating_mul(main.access(width)));
                transactions = transactions.saturating_add(self.read_counts[w]);
            }
        }
        Ok(Tally {
            cycles,
            transactions,
            stats,
            main,
            max_cycles: self.max_cycles,
        })
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
                EV_CYCLE_READ => {
                    // The recorded value is only valid if the target
                    // hierarchy reaches this read at the same cycle.
                    if now as u32 != ev.addr {
                        return Err(SimError::ReplayDivergence {
                            recorded: ev.addr,
                            replayed: now as u32,
                        });
                    }
                    1
                }
                _ => {
                    return Err(SimError::Fault {
                        pc: 0,
                        addr: ev.addr,
                        what: "corrupt trace event kind",
                    })
                }
            };
            cycles = cycles.saturating_add(cost);
        }
        Ok((cycles.saturating_add(self.tail_cycles), stats))
    }

    fn write_cycles(&self, main: &MainMemoryTiming) -> u64 {
        self.main_writes[0]
            .saturating_mul(main.access(AccessWidth::Byte))
            .saturating_add(self.main_writes[1].saturating_mul(main.access(AccessWidth::Half)))
            .saturating_add(self.main_writes[2].saturating_mul(main.access(AccessWidth::Word)))
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
    /// that end early or declare impossible contents.
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
        for _ in 0..count {
            let b = take(&mut at, EVENT_BYTES)?;
            let kind = b[4];
            if kind > EV_KIND_MAX {
                return Err(TraceError::Corrupt("unknown event kind"));
            }
            if b[5] > 1 {
                return Err(TraceError::Corrupt("latch flag out of range"));
            }
            events.push(AccessEvent {
                addr: u32::from_le_bytes(b[0..4].try_into().expect("4-byte slice")),
                kind,
                latched: b[5] == 1,
                delta_before: u32::from_le_bytes(b[6..10].try_into().expect("4-byte slice")),
                delta_after: u32::from_le_bytes(b[10..14].try_into().expect("4-byte slice")),
            });
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
    use spmlab_isa::hierarchy::StoreBuffer;
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
        let src = "
            int t;
            void main() { t = __cycles(); }
        ";
        let Ok(module) = compile(src) else {
            return; // No __cycles intrinsic in this toolchain: nothing to test.
        };
        let l = link(&module, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
        let (recorded, trace) = simulate_with_trace(&l.exe, &SimOptions::default()).unwrap();
        assert!(trace.cycle_reads() > 0);
        // Same timing as the recording machine: values match, replay
        // succeeds bit-identically.
        let (cycles, _) = trace.replay(&MemHierarchyConfig::uncached()).unwrap();
        assert_eq!(cycles, recorded.cycles);
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

    /// The run index skips accesses on the recorded kernel and accounts
    /// for every fetch and read under each rule; streams it cannot
    /// describe — an undeclared cycle-register read, an address too wide
    /// for an entry — tally as the per-event walk does, error included.
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
        let runs = RunIndex::build(&trace.events).expect("the recording is indexable");
        assert!(runs.heads.len() < reads as usize);
        for rule in [RunRule::SameStream, RunRule::Shared] {
            let elided = runs.elided[rule as usize].iter().sum::<u64>();
            assert!(elided > 0, "{rule:?} skips nothing");
            assert_eq!(runs.walked[rule as usize] + elided, reads, "{rule:?}");
        }

        let tally = |t: &MemTrace, h: &MemHierarchyConfig| {
            t.tally(h)
                .map(|t| (t.cycles, t.transactions, t.stats, t.main))
        };
        let mut undeclared = trace.clone();
        undeclared.events.insert(
            1,
            AccessEvent {
                addr: 0,
                kind: EV_CYCLE_READ,
                latched: false,
                delta_before: 0,
                delta_after: 0,
            },
        );
        let mut wide = trace.clone();
        let read = wide.events.iter().position(|e| e.kind == EV_READ_WORD);
        wide.events[read.expect("the kernel reads")].addr = RUN_ADDR_MASK + 1;
        let machines = [
            MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
            MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048)),
        ];
        for t in [undeclared, wide] {
            let indexed = t.clone().with_run_index();
            for h in &machines {
                assert_eq!(tally(&indexed, h), tally(&t, h), "{}", h.label());
            }
            assert!(matches!(
                indexed.runs.as_ref().and_then(OnceLock::get),
                Some(None)
            ));
        }
        let mut undeclared = trace.with_run_index();
        undeclared.events[0].kind = EV_CYCLE_READ;
        assert!(matches!(
            undeclared.tally(&machines[0]),
            Err(SimError::Fault { .. })
        ));
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
