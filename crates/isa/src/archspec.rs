//! `MemArchSpec` — one declarative value describing a complete memory
//! architecture, the single input of the experiment pipeline's unified
//! `run` entry point.
//!
//! The paper's core experiment varies exactly one axis: the memory
//! architecture (scratchpad sizes vs. cache sizes vs. main-memory timing).
//! A spec captures one point of that axis as a value —
//!
//! * an optional **scratchpad** ([`SpmSpec`]): capacity plus the
//!   allocation strategy that fills it (none, the paper's profile-driven
//!   energy knapsack, or the WCET-aware allocator, optionally against the
//!   spec's own multi-level timing),
//! * an optional list of **cache levels**, reusing the
//!   [`MemHierarchyConfig`] level descriptors (unified or split L1, a
//!   unified L2),
//! * the parametric **main-memory timing** ([`MainMemoryTiming`]) behind
//!   everything,
//! * the analysis-side `persistence` knob, carried along so one value
//!   reproduces a sweep point exactly (machine *and* analysis method).
//!
//! This mirrors how Heckmann–Ferdinand drive one analyzer from one machine
//! description (aiT) and how Hardy–Puaut parameterize multi-level cache
//! analysis over arbitrary hierarchies. Because scratchpad and hierarchy
//! now compose in one value, the WCET-aware allocator can optimize object
//! placement against the multi-level critical path instead of flat region
//! timing.
//!
//! Specs are **validated**, not trusted: [`MemArchSpec::validate`] checks
//! the geometry/overlap/latency invariants and returns [`SpecError`]
//! instead of panicking. [`MemArchSpec::canonical`] produces the canonical
//! form (disabled zero-size levels dropped, empty split collapsed, a
//! zero-byte scratchpad removed, …) used as the sweep memo key: two specs
//! with equal canonical forms describe the same machine and share one
//! measurement.
//!
//! ```
//! use spmlab_isa::archspec::{MemArchSpec, SpmAllocation};
//! use spmlab_isa::cachecfg::CacheConfig;
//! use spmlab_isa::hierarchy::MainMemoryTiming;
//!
//! // The paper's 1 KiB scratchpad point.
//! let spm = MemArchSpec::spm(1024);
//! // A split-L1 + L2 machine over DRAM-style main memory, with a
//! // hierarchy-aware WCET allocation filling a 512-byte scratchpad.
//! let spec = MemArchSpec::builder()
//!     .spm_with(512, SpmAllocation::WcetAware)
//!     .split_l1(Some(CacheConfig::instr_only(512)), Some(CacheConfig::data_only(512)))
//!     .l2(CacheConfig::l2(4096))
//!     .main(MainMemoryTiming::dram(10))
//!     .build()?;
//! assert!(spec.has_cache_levels());
//! let round = MemArchSpec::from_json(&spec.to_json())?;
//! assert_eq!(round, spec);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cachecfg::{CacheConfig, CacheScope, Replacement, WritePolicy};
use crate::hierarchy::{MainMemoryTiming, MemHierarchyConfig, StoreBuffer, L1};
use crate::mem::{MAIN_BASE, SPM_BASE};
use serde::{Deserialize, Serialize};

/// How the scratchpad is filled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpmAllocation {
    /// The scratchpad is present but nothing is placed in it (the "none"
    /// strategy — a capacity-only ablation point).
    Empty,
    /// The paper's energy-optimal knapsack over the baseline profile.
    ProfileKnapsack,
    /// Greedy WCET-aware allocation optimizing **this spec's** timing: with
    /// cache levels present the objective is the multi-level critical path
    /// (the allocator re-analyzes candidates under the spec's hierarchy),
    /// falling back to the region-timing result when that scores better.
    WcetAware,
    /// Greedy WCET-aware allocation against flat Table-1 region timing —
    /// the seed allocator's objective, kept as the comparison baseline for
    /// the SPM×hierarchy axis.
    WcetRegion,
    /// An explicit object list (ablations, artifact reproduction).
    Fixed(Vec<String>),
}

/// Scratchpad half of a spec: capacity plus allocation strategy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpmSpec {
    /// Capacity in bytes (0 = no scratchpad; canonicalised away).
    pub size: u32,
    /// How the capacity is filled.
    pub alloc: SpmAllocation,
}

/// One fully-described memory architecture (plus the analysis options that
/// ride along so a sweep point is reproducible from the spec alone). See
/// the [module docs](self) for the full story.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemArchSpec {
    /// Optional scratchpad (size + allocation strategy).
    pub spm: Option<SpmSpec>,
    /// First-level cache arrangement (the [`MemHierarchyConfig`] level
    /// descriptor). [`L1::None`] for uncached and scratchpad-only machines.
    pub l1: L1,
    /// Optional unified second-level cache.
    pub l2: Option<CacheConfig>,
    /// Main-memory timing behind the last cache level.
    pub main: MainMemoryTiming,
    /// Run the persistence (first-miss) cache analysis in addition to MUST
    /// (single-level L1-only machines over Table-1 main memory only).
    pub persistence: bool,
}

/// Validation failures of a [`MemArchSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The scratchpad would overlap the main-memory region.
    SpmTooLarge {
        /// Requested capacity.
        size: u32,
        /// Largest non-overlapping capacity.
        max: u32,
    },
    /// A cache level's geometry is invalid.
    BadCache {
        /// Which level (`"l1"`, `"l1i"`, `"l1d"`, `"l2"`).
        level: &'static str,
        /// What is wrong with it.
        what: &'static str,
    },
    /// A split-L1 half has a scope that contradicts its side.
    SplitScope(&'static str),
    /// The L2 must be unified.
    L2Scope,
    /// Main-memory timing is impossible (zero-width bus or zero-cycle beat).
    BadMain(&'static str),
    /// `persistence` is set on a shape the persistence analysis does not
    /// support.
    PersistenceShape(&'static str),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::SpmTooLarge { size, max } => {
                write!(
                    f,
                    "scratchpad of {size} B overlaps main memory (max {max} B)"
                )
            }
            SpecError::BadCache { level, what } => write!(f, "{level}: {what}"),
            SpecError::SplitScope(s) => write!(f, "split L1: {s}"),
            SpecError::L2Scope => write!(f, "the second-level cache must be unified"),
            SpecError::BadMain(s) => write!(f, "main memory: {s}"),
            SpecError::PersistenceShape(s) => write!(f, "persistence analysis: {s}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Non-panicking geometry check of one (enabled) cache level.
fn check_cache(c: &CacheConfig, level: &'static str) -> Result<(), SpecError> {
    let err = |what| Err(SpecError::BadCache { level, what });
    if c.size == 0 {
        return Ok(()); // Disabled level; canonicalised away.
    }
    if !c.size.is_power_of_two() {
        return err("cache size must be a power of two");
    }
    if !c.line.is_power_of_two() || c.line < 4 {
        return err("line size must be a power of two >= 4");
    }
    if c.line > c.size {
        return err("line size exceeds cache size");
    }
    if c.assoc < 1 || c.assoc > c.size / c.line {
        return err("bad associativity");
    }
    if !(c.size / c.line).is_multiple_of(c.assoc) {
        return err("sets must divide evenly");
    }
    if c.hit_latency < 1 {
        return err("hit latency must be at least one cycle");
    }
    Ok(())
}

impl MemArchSpec {
    /// No scratchpad, no caches, Table-1 main memory — the paper's
    /// baseline machine.
    pub fn uncached() -> MemArchSpec {
        MemArchSpec {
            spm: None,
            l1: L1::None,
            l2: None,
            main: MainMemoryTiming::table1(),
            persistence: false,
        }
    }

    /// The scratchpad branch of the paper: `size` bytes filled by the
    /// energy knapsack, no caches, Table-1 main memory.
    pub fn spm(size: u32) -> MemArchSpec {
        MemArchSpec::spm_with(size, SpmAllocation::ProfileKnapsack)
    }

    /// Scratchpad of `size` bytes with an explicit allocation strategy.
    pub fn spm_with(size: u32, alloc: SpmAllocation) -> MemArchSpec {
        MemArchSpec {
            spm: Some(SpmSpec { size, alloc }),
            ..MemArchSpec::uncached()
        }
    }

    /// The cache branch of the paper: one L1 of arbitrary geometry (its
    /// [`CacheScope`] routes traffic), no scratchpad, Table-1 main memory.
    pub fn single_cache(cache: CacheConfig) -> MemArchSpec {
        MemArchSpec {
            l1: L1::Unified(cache),
            ..MemArchSpec::uncached()
        }
    }

    /// Wraps an existing hierarchy description (no scratchpad).
    pub fn from_hierarchy(h: &MemHierarchyConfig) -> MemArchSpec {
        MemArchSpec {
            spm: None,
            l1: h.l1.clone(),
            l2: h.l2.clone(),
            main: h.main,
            persistence: false,
        }
    }

    /// Starts a builder (uncached baseline until configured).
    pub fn builder() -> MemArchSpecBuilder {
        MemArchSpecBuilder {
            spec: MemArchSpec::uncached(),
        }
    }

    /// The cache-hierarchy part of the spec (levels + main timing) — what
    /// the simulator's memory system and the multi-level analysis consume.
    pub fn hierarchy(&self) -> MemHierarchyConfig {
        MemHierarchyConfig {
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            main: self.main,
        }
    }

    /// Whether any (enabled) cache level is present
    /// ([`MemHierarchyConfig::has_cache_levels`] of [`Self::hierarchy`]).
    pub fn has_cache_levels(&self) -> bool {
        self.hierarchy().has_cache_levels()
    }

    /// Scratchpad capacity in bytes (0 when absent).
    pub fn spm_size(&self) -> u32 {
        self.spm.as_ref().map_or(0, |s| s.size)
    }

    /// Total cache bytes across all enabled levels (energy accounting).
    pub fn cache_bytes(&self) -> u32 {
        let l1 = match &self.l1 {
            L1::None => 0,
            L1::Unified(c) => c.size,
            L1::Split { i, d } => {
                i.as_ref().map_or(0, |c| c.size) + d.as_ref().map_or(0, |c| c.size)
            }
        };
        l1 + self.l2.as_ref().map_or(0, |c| c.size)
    }

    /// Checks every invariant: per-level cache geometry, split-half and L2
    /// scopes, scratchpad/main overlap, main-memory timing, and the
    /// persistence shape.
    ///
    /// # Errors
    ///
    /// The first violated invariant as a [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if let Some(spm) = &self.spm {
            let max = MAIN_BASE - SPM_BASE;
            if spm.size > max {
                return Err(SpecError::SpmTooLarge {
                    size: spm.size,
                    max,
                });
            }
        }
        match &self.l1 {
            L1::None => {}
            L1::Unified(c) => check_cache(c, "l1")?,
            L1::Split { i, d } => {
                if let Some(c) = i {
                    check_cache(c, "l1i")?;
                    if c.size > 0 && c.scope == CacheScope::DataOnly {
                        return Err(SpecError::SplitScope(
                            "instruction half cannot be data-only",
                        ));
                    }
                }
                if let Some(c) = d {
                    check_cache(c, "l1d")?;
                    if c.size > 0 && c.scope == CacheScope::InstrOnly {
                        return Err(SpecError::SplitScope(
                            "data half cannot be instruction-only",
                        ));
                    }
                }
            }
        }
        if let Some(l2) = &self.l2 {
            check_cache(l2, "l2")?;
            if l2.size > 0 && l2.scope != CacheScope::Unified {
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
        if self.persistence {
            let canon = self.canonical();
            if canon.spm.is_some() {
                return Err(SpecError::PersistenceShape(
                    "not supported together with a scratchpad",
                ));
            }
            match &canon.l1 {
                L1::Unified(c) if !c.write_policy.is_write_back() => {}
                L1::Unified(_) => {
                    return Err(SpecError::PersistenceShape(
                        "requires a write-through L1 (first-miss persistence \
                         has no write-back model)",
                    ));
                }
                _ => {
                    return Err(SpecError::PersistenceShape(
                        "requires exactly one single-level L1",
                    ));
                }
            }
            if canon.l2.is_some() {
                return Err(SpecError::PersistenceShape(
                    "requires exactly one single-level L1",
                ));
            }
            if canon.main != MainMemoryTiming::table1() {
                return Err(SpecError::PersistenceShape(
                    "requires Table-1 main-memory timing (no store buffer)",
                ));
            }
        }
        Ok(())
    }

    /// The canonical form: the representative of all specs that describe
    /// the same machine and measurement. Used as the sweep memo key, so
    /// equal-after-validation specs (e.g. zero-size disabled levels) share
    /// one measurement.
    ///
    /// Normalisations:
    /// * cache levels with `size == 0` are dropped (disabled levels);
    /// * `L1::Split { i: None, d: None }` collapses to [`L1::None`];
    /// * a zero-byte scratchpad is removed entirely (the link, simulation
    ///   and analysis are identical to the no-scratchpad machine);
    /// * [`SpmAllocation::Fixed`] with an empty list becomes
    ///   [`SpmAllocation::Empty`]; fixed name lists are sorted + deduped
    ///   (scratchpad placement is order-independent);
    /// * [`SpmAllocation::WcetAware`] degrades to
    ///   [`SpmAllocation::WcetRegion`] when no cache level is enabled and
    ///   main memory is Table-1 (the two objectives coincide there);
    /// * a write-back policy on a level that never sees store traffic (an
    ///   instruction-only unified L1, or the instruction half of a split
    ///   L1) normalises to write-through — no store can ever dirty a line
    ///   there, so the two policies describe the same machine.
    pub fn canonical(&self) -> MemArchSpec {
        // Levels that serve no data traffic can hold no dirty lines: their
        // write policy is behaviourally irrelevant and canonicalises away.
        let instr_wt = |mut c: CacheConfig| {
            if c.scope == CacheScope::InstrOnly {
                c.write_policy = WritePolicy::WriteThrough;
            }
            c
        };
        let keep = |c: &Option<CacheConfig>| c.clone().filter(|c| c.size > 0).map(instr_wt);
        let l1 = match &self.l1 {
            L1::None => L1::None,
            L1::Unified(c) if c.size == 0 => L1::None,
            L1::Unified(c) => L1::Unified(instr_wt(c.clone())),
            L1::Split { i, d } => {
                let (i, d) = (keep(i), keep(d));
                if i.is_none() && d.is_none() {
                    L1::None
                } else {
                    L1::Split { i, d }
                }
            }
        };
        let l2 = keep(&self.l2);
        let has_cache = !matches!(l1, L1::None) || l2.is_some();
        let spm = self.spm.as_ref().filter(|s| s.size > 0).map(|s| SpmSpec {
            size: s.size,
            alloc: match &s.alloc {
                SpmAllocation::Fixed(names) if names.is_empty() => SpmAllocation::Empty,
                SpmAllocation::Fixed(names) => {
                    let mut names: Vec<String> = names.clone();
                    names.sort();
                    names.dedup();
                    SpmAllocation::Fixed(names)
                }
                SpmAllocation::WcetAware
                    if !has_cache && self.main == MainMemoryTiming::table1() =>
                {
                    SpmAllocation::WcetRegion
                }
                other => other.clone(),
            },
        });
        MemArchSpec {
            spm,
            l1,
            l2,
            main: self.main,
            persistence: self.persistence,
        }
    }

    /// Human-readable label of this spec, used in reports and artifacts.
    /// For the shapes the legacy entry points could express, the label is
    /// identical to theirs (`spm 1024`, `spm 1024 (dram 10)`,
    /// `l1i512+l1d512+l2 4096`, …).
    pub fn label(&self) -> String {
        let canon = self.canonical();
        let hier = canon.hierarchy();
        let spm = canon.spm.as_ref().map(|s| {
            let tag = match &s.alloc {
                SpmAllocation::Empty => " empty",
                SpmAllocation::ProfileKnapsack => "",
                SpmAllocation::WcetAware => " wcet",
                SpmAllocation::WcetRegion => " wcet-region",
                SpmAllocation::Fixed(_) => " fixed",
            };
            format!("spm {}{tag}", s.size)
        });
        let base = match spm {
            None => hier.label(),
            Some(spm) if !canon.has_cache_levels() => {
                // Scratchpad-only machine: the legacy `spm N (dram L)`
                // format (latency only on the standard 16-bit bus).
                let main = if canon.main == MainMemoryTiming::table1() {
                    String::new()
                } else if canon.main.beat_cycles == 2 && canon.main.bus_bytes == 2 {
                    format!(" (dram {})", canon.main.latency)
                } else {
                    format!(
                        " (dram {}+{}x{})",
                        canon.main.latency, canon.main.beat_cycles, canon.main.bus_bytes
                    )
                };
                format!("{spm}{main}")
            }
            Some(spm) => format!("{spm} + {}", hier.label()),
        };
        if self.persistence {
            format!("{base} (persistence)")
        } else {
            base
        }
    }
}

impl Default for MemArchSpec {
    fn default() -> MemArchSpec {
        MemArchSpec::uncached()
    }
}

/// Builder for [`MemArchSpec`]; [`MemArchSpecBuilder::build`] validates.
#[derive(Debug, Clone)]
pub struct MemArchSpecBuilder {
    spec: MemArchSpec,
}

impl MemArchSpecBuilder {
    /// Adds a knapsack-filled scratchpad of `size` bytes.
    pub fn spm(self, size: u32) -> MemArchSpecBuilder {
        self.spm_with(size, SpmAllocation::ProfileKnapsack)
    }

    /// Adds a scratchpad of `size` bytes with an explicit strategy.
    pub fn spm_with(mut self, size: u32, alloc: SpmAllocation) -> MemArchSpecBuilder {
        self.spec.spm = Some(SpmSpec { size, alloc });
        self
    }

    /// Sets a single L1 (routed by its [`CacheScope`]).
    pub fn l1(mut self, cache: CacheConfig) -> MemArchSpecBuilder {
        self.spec.l1 = L1::Unified(cache);
        self
    }

    /// Sets a split Harvard-style L1 (either half may be absent).
    pub fn split_l1(
        mut self,
        i: Option<CacheConfig>,
        d: Option<CacheConfig>,
    ) -> MemArchSpecBuilder {
        self.spec.l1 = L1::Split { i, d };
        self
    }

    /// Adds a unified L2 behind the L1.
    pub fn l2(mut self, l2: CacheConfig) -> MemArchSpecBuilder {
        self.spec.l2 = Some(l2);
        self
    }

    /// Replaces the main-memory timing.
    pub fn main(mut self, main: MainMemoryTiming) -> MemArchSpecBuilder {
        self.spec.main = main;
        self
    }

    /// Enables the persistence (first-miss) analysis extension.
    pub fn persistence(mut self, on: bool) -> MemArchSpecBuilder {
        self.spec.persistence = on;
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Any [`SpecError`] of [`MemArchSpec::validate`].
    pub fn build(self) -> Result<MemArchSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

// ---------------------------------------------------------------------------
// JSON round-trip.
//
// The vendored serde stand-in provides only the marker traits (see
// vendor/README.md), so the wire format is implemented here directly on the
// spec types; the `#[derive(Serialize, Deserialize)]` annotations stay in
// place for the one-line swap to the real serde/serde_json once a registry
// is reachable. The schema is flat JSON, stable, and documented on
// [`MemArchSpec::to_json`].
// ---------------------------------------------------------------------------

/// Errors parsing a spec from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecJsonError(String);

impl std::fmt::Display for SpecJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec json: {}", self.0)
    }
}

impl std::error::Error for SpecJsonError {}

pub mod json {
    //! The workspace's one JSON reader (and the escaper its writers
    //! share): spec documents, DSE grids, checkpoint and shard streams,
    //! and recorded profile streams all parse through [`parse`]. The
    //! vendored serde stand-in provides no `serde_json`, so this is the
    //! one shared implementation.
    //!
    //! Numbers keep their literal text, so integer fields read back
    //! exactly over the full `u64` range ([`Value::as_u64`]) — checkpoint
    //! records carry `f64` bit patterns above 2⁵³. Nesting is bounded by
    //! [`MAX_DEPTH`], so hostile input is a typed error, never a stack
    //! overflow.

    use std::collections::BTreeMap;

    /// Deepest array/object nesting [`parse`] accepts. Every document the
    /// workspace writes nests at most four levels.
    pub const MAX_DEPTH: usize = 64;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number, as its (validated) literal text.
        Num(String),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object (key order normalised by the map).
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        /// Object field lookup; `None` for non-objects, missing keys, and
        /// explicit `null` values (absent and `null` are equivalent in
        /// every schema built on this parser).
        pub fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
            match self {
                Value::Obj(m) => m.get(key).filter(|v| !matches!(v, Value::Null)),
                _ => None,
            }
        }

        /// The exact value of an integer literal in `0..=u64::MAX`;
        /// `None` for negative, fractional, exponent-form or out-of-range
        /// numbers and for non-numbers.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(lit) => lit.parse().ok(),
                _ => None,
            }
        }

        /// The exact value of an integer literal in the `i64` range.
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Num(lit) => lit.parse().ok(),
                _ => None,
            }
        }

        /// The value as a string slice, if it is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    /// Escapes `s` for embedding in a JSON string literal.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Why [`parse`] rejected a document.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ParseError {
        /// Malformed JSON: what was wrong, with its byte offset.
        Syntax(String),
        /// Arrays/objects nested deeper than [`MAX_DEPTH`]; `at` is the
        /// byte offset of the first bracket past the limit.
        TooDeep {
            /// Byte offset of the offending `[` or `{`.
            at: usize,
        },
    }

    impl std::fmt::Display for ParseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                ParseError::Syntax(msg) => f.write_str(msg),
                ParseError::TooDeep { at } => {
                    write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}")
                }
            }
        }
    }

    impl std::error::Error for ParseError {}

    impl From<ParseError> for String {
        fn from(e: ParseError) -> String {
            e.to_string()
        }
    }

    fn syntax(msg: impl Into<String>) -> ParseError {
        ParseError::Syntax(msg.into())
    }

    /// Parses one complete JSON document (trailing data is an error).
    ///
    /// # Errors
    ///
    /// [`ParseError::Syntax`] for the first syntax error,
    /// [`ParseError::TooDeep`] past [`MAX_DEPTH`] levels of nesting.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(syntax(format!("trailing data at byte {}", p.pos)));
        }
        Ok(v)
    }

    struct Parser<'a> {
        text: &'a str,
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn rest(&self) -> &[u8] {
            &self.text.as_bytes()[self.pos..]
        }

        fn skip_ws(&mut self) {
            while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.text.as_bytes().get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(syntax(format!(
                    "expected `{}` at byte {}",
                    b as char, self.pos
                )))
            }
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
            if self.rest().starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(syntax(format!("bad literal at byte {}", self.pos)))
            }
        }

        fn value(&mut self) -> Result<Value, ParseError> {
            self.skip_ws();
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b'[') => self.nested(Self::array),
                Some(b'{') => self.nested(Self::object),
                Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
                _ => Err(syntax(format!("unexpected input at byte {}", self.pos))),
            }
        }

        /// Runs `body` one nesting level deeper, refusing to go past
        /// [`MAX_DEPTH`].
        fn nested(
            &mut self,
            body: fn(&mut Self) -> Result<Value, ParseError>,
        ) -> Result<Value, ParseError> {
            if self.depth == MAX_DEPTH {
                return Err(ParseError::TooDeep { at: self.pos });
            }
            self.depth += 1;
            let v = body(self)?;
            self.depth -= 1;
            Ok(v)
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                // Copy the run up to the next quote or backslash in one go:
                // both are ASCII, so the cut is a char boundary.
                let run = self
                    .rest()
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .ok_or_else(|| syntax("unterminated string"))?;
                out.push_str(&self.text[self.pos..self.pos + run]);
                self.pos += run;
                if self.peek() == Some(b'"') {
                    self.pos += 1;
                    return Ok(out);
                }
                self.pos += 1;
                match self.peek() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let code = self
                            .text
                            .get(self.pos + 1..self.pos + 5)
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| syntax("bad \\u escape"))?;
                        out.push(code);
                        self.pos += 4;
                    }
                    _ => return Err(syntax("bad escape")),
                }
                self.pos += 1;
            }
        }

        fn number(&mut self) -> Result<Value, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| {
                b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
            }) {
                self.pos += 1;
            }
            let lit = &self.text[start..self.pos];
            if lit.parse::<f64>().is_err() {
                return Err(syntax(format!("bad number at byte {start}")));
            }
            Ok(Value::Num(lit.to_string()))
        }

        fn array(&mut self) -> Result<Value, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(syntax(format!("expected `,` or `]` at byte {}", self.pos))),
                }
            }
        }

        fn object(&mut self) -> Result<Value, ParseError> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let v = self.value()?;
                map.insert(key, v);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(syntax(format!("expected `,` or `}}` at byte {}", self.pos))),
                }
            }
        }
    }
}

fn cache_to_json(c: &CacheConfig) -> String {
    let replacement = match c.replacement {
        Replacement::Lru => "\"lru\"".to_string(),
        Replacement::RoundRobin => "\"round-robin\"".to_string(),
        Replacement::Random { seed } => format!("{{\"random\": {seed}}}"),
    };
    let scope = match c.scope {
        CacheScope::Unified => "unified",
        CacheScope::InstrOnly => "instr",
        CacheScope::DataOnly => "data",
    };
    let write_policy = match c.write_policy {
        WritePolicy::WriteThrough => "write-through",
        WritePolicy::WriteBack => "write-back",
    };
    format!(
        "{{\"size\": {}, \"line\": {}, \"assoc\": {}, \"replacement\": {replacement}, \
         \"scope\": \"{scope}\", \"hit_latency\": {}, \"write_policy\": \"{write_policy}\"}}",
        c.size, c.line, c.assoc, c.hit_latency
    )
}

/// Checked `u64 → u32` for spec fields: a value above `u32::MAX` is a
/// schema error, never a silent truncation (the whole point of `--spec`
/// is exact reproduction).
fn to_u32(n: u64, context: &str, key: &str) -> Result<u32, SpecJsonError> {
    u32::try_from(n).map_err(|_| SpecJsonError(format!("{context}: `{key}` exceeds u32 range")))
}

fn cache_from_json(v: &json::Value, level: &str) -> Result<CacheConfig, SpecJsonError> {
    let err = |what: &str| SpecJsonError(format!("{level}: {what}"));
    let num = |key: &str, default: u64| -> Result<u32, SpecJsonError> {
        match v.get(key) {
            None => to_u32(default, level, key),
            Some(n) => {
                let n = n
                    .as_u64()
                    .ok_or_else(|| err(&format!("`{key}` must be a non-negative integer")))?;
                to_u32(n, level, key)
            }
        }
    };
    let size = to_u32(
        v.get("size")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| err("missing `size`"))?,
        level,
        "size",
    )?;
    let replacement = match v.get("replacement") {
        None => Replacement::Lru,
        Some(json::Value::Str(s)) if s == "lru" => Replacement::Lru,
        Some(json::Value::Str(s)) if s == "round-robin" => Replacement::RoundRobin,
        Some(r) => match r.get("random").and_then(json::Value::as_u64) {
            Some(seed) => Replacement::Random { seed },
            None => return Err(err("bad `replacement`")),
        },
    };
    let scope = match v.get("scope").and_then(json::Value::as_str) {
        None | Some("unified") => CacheScope::Unified,
        Some("instr") => CacheScope::InstrOnly,
        Some("data") => CacheScope::DataOnly,
        Some(_) => return Err(err("bad `scope`")),
    };
    let write_policy = match v.get("write_policy").and_then(json::Value::as_str) {
        None | Some("write-through") | Some("wt") => WritePolicy::WriteThrough,
        Some("write-back") | Some("wb") => WritePolicy::WriteBack,
        Some(_) => return Err(err("bad `write_policy`")),
    };
    Ok(CacheConfig {
        size,
        line: num("line", 16)?,
        assoc: num("assoc", 1)?,
        replacement,
        scope,
        hit_latency: num("hit_latency", 1)?,
        write_policy,
    })
}

impl MemArchSpec {
    /// Serialises the spec as JSON. Schema (all fields optional on input;
    /// `null` and absent are equivalent):
    ///
    /// ```json
    /// {
    ///   "spm": {"size": 1024, "alloc": "knapsack"},
    ///   "l1": {"unified": {"size": 1024, "line": 16, "assoc": 1,
    ///          "replacement": "lru", "scope": "unified", "hit_latency": 1,
    ///          "write_policy": "write-through"}},
    ///   "l2": {"size": 4096, "line": 32, "assoc": 4, "replacement": "lru",
    ///          "scope": "unified", "hit_latency": 3,
    ///          "write_policy": "write-back"},
    ///   "main": {"latency": 0, "beat_cycles": 2, "bus_bytes": 2,
    ///            "store_buffer": {"depth": 4, "drain_cycles": 6}},
    ///   "persistence": false
    /// }
    /// ```
    ///
    /// `l1` may instead be `{"split": {"i": cache|null, "d": cache|null}}`;
    /// `alloc` is `"empty"`, `"knapsack"`, `"wcet"`, `"wcet-region"` or
    /// `{"fixed": ["name", …]}`. Replacement is `"lru"`, `"round-robin"`
    /// or `{"random": seed}`; scope is `"unified"`, `"instr"` or `"data"`;
    /// `write_policy` is `"write-through"` (alias `"wt"`, the default) or
    /// `"write-back"` (`"wb"`); `store_buffer` is `null` (default) or
    /// `{"depth", "drain_cycles"}`.
    pub fn to_json(&self) -> String {
        let spm = match &self.spm {
            None => "null".to_string(),
            Some(s) => {
                let alloc = match &s.alloc {
                    SpmAllocation::Empty => "\"empty\"".to_string(),
                    SpmAllocation::ProfileKnapsack => "\"knapsack\"".to_string(),
                    SpmAllocation::WcetAware => "\"wcet\"".to_string(),
                    SpmAllocation::WcetRegion => "\"wcet-region\"".to_string(),
                    SpmAllocation::Fixed(names) => format!(
                        "{{\"fixed\": [{}]}}",
                        names
                            .iter()
                            .map(|n| format!("\"{}\"", json::escape(n)))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                };
                format!("{{\"size\": {}, \"alloc\": {alloc}}}", s.size)
            }
        };
        let l1 = match &self.l1 {
            L1::None => "null".to_string(),
            L1::Unified(c) => format!("{{\"unified\": {}}}", cache_to_json(c)),
            L1::Split { i, d } => {
                let half =
                    |c: &Option<CacheConfig>| c.as_ref().map_or("null".to_string(), cache_to_json);
                format!("{{\"split\": {{\"i\": {}, \"d\": {}}}}}", half(i), half(d))
            }
        };
        let l2 = self.l2.as_ref().map_or("null".to_string(), cache_to_json);
        let store_buffer = match &self.main.store_buffer {
            None => "null".to_string(),
            Some(sb) => format!(
                "{{\"depth\": {}, \"drain_cycles\": {}}}",
                sb.depth, sb.drain_cycles
            ),
        };
        format!(
            "{{\n  \"spm\": {spm},\n  \"l1\": {l1},\n  \"l2\": {l2},\n  \"main\": \
             {{\"latency\": {}, \"beat_cycles\": {}, \"bus_bytes\": {}, \
             \"store_buffer\": {store_buffer}}},\n  \
             \"persistence\": {}\n}}",
            self.main.latency, self.main.beat_cycles, self.main.bus_bytes, self.persistence
        )
    }

    /// Parses a spec from the [`MemArchSpec::to_json`] schema and
    /// validates it.
    ///
    /// # Errors
    ///
    /// [`SpecJsonError`] for malformed JSON or schema violations
    /// (validation failures are reported through the same error).
    pub fn from_json(text: &str) -> Result<MemArchSpec, SpecJsonError> {
        MemArchSpec::from_value(&json::parse(text).map_err(|e| SpecJsonError(e.to_string()))?)
    }

    /// [`MemArchSpec::from_json`] on an already-parsed document, such as
    /// one entry of a grid's `points` list.
    ///
    /// # Errors
    ///
    /// As [`MemArchSpec::from_json`].
    pub fn from_value(v: &json::Value) -> Result<MemArchSpec, SpecJsonError> {
        if !matches!(v, json::Value::Obj(_)) {
            return Err(SpecJsonError("top level must be an object".into()));
        }
        let spm = match v.get("spm") {
            None => None,
            Some(s) => {
                let size = to_u32(
                    s.get("size")
                        .and_then(json::Value::as_u64)
                        .ok_or_else(|| SpecJsonError("spm: missing `size`".into()))?,
                    "spm",
                    "size",
                )?;
                let alloc = match s.get("alloc") {
                    None | Some(json::Value::Str(_)) => {
                        match s.get("alloc").and_then(json::Value::as_str) {
                            None | Some("knapsack") => SpmAllocation::ProfileKnapsack,
                            Some("empty") => SpmAllocation::Empty,
                            Some("wcet") => SpmAllocation::WcetAware,
                            Some("wcet-region") => SpmAllocation::WcetRegion,
                            Some(other) => {
                                return Err(SpecJsonError(format!("spm: unknown alloc `{other}`")))
                            }
                        }
                    }
                    Some(a) => match a.get("fixed") {
                        Some(json::Value::Arr(items)) => {
                            let mut names = Vec::with_capacity(items.len());
                            for it in items {
                                names.push(
                                    it.as_str()
                                        .ok_or_else(|| {
                                            SpecJsonError("spm: fixed names must be strings".into())
                                        })?
                                        .to_string(),
                                );
                            }
                            SpmAllocation::Fixed(names)
                        }
                        _ => return Err(SpecJsonError("spm: bad `alloc`".into())),
                    },
                };
                Some(SpmSpec { size, alloc })
            }
        };
        let l1 = match v.get("l1") {
            None => L1::None,
            Some(l) => {
                if let Some(u) = l.get("unified") {
                    L1::Unified(cache_from_json(u, "l1")?)
                } else if let Some(s) = l.get("split") {
                    let half =
                        |key: &str, level: &str| -> Result<Option<CacheConfig>, SpecJsonError> {
                            match s.get(key) {
                                None => Ok(None),
                                Some(c) => Ok(Some(cache_from_json(c, level)?)),
                            }
                        };
                    L1::Split {
                        i: half("i", "l1i")?,
                        d: half("d", "l1d")?,
                    }
                } else {
                    return Err(SpecJsonError("l1: expected `unified` or `split`".into()));
                }
            }
        };
        let l2 = match v.get("l2") {
            None => None,
            Some(c) => Some(cache_from_json(c, "l2")?),
        };
        let main = match v.get("main") {
            None => MainMemoryTiming::table1(),
            Some(m) => {
                let num = |key: &str, default: u64| -> Result<u64, SpecJsonError> {
                    match m.get(key) {
                        None => Ok(default),
                        Some(n) => n.as_u64().ok_or_else(|| {
                            SpecJsonError(format!("main: `{key}` must be a non-negative integer"))
                        }),
                    }
                };
                let store_buffer = match m.get("store_buffer") {
                    None => None,
                    Some(sb) => {
                        let field = |key: &str| -> Result<u64, SpecJsonError> {
                            sb.get(key).and_then(json::Value::as_u64).ok_or_else(|| {
                                SpecJsonError(format!(
                                    "main.store_buffer: `{key}` must be a non-negative integer"
                                ))
                            })
                        };
                        Some(StoreBuffer {
                            depth: to_u32(field("depth")?, "main.store_buffer", "depth")?,
                            drain_cycles: field("drain_cycles")?,
                        })
                    }
                };
                MainMemoryTiming {
                    latency: num("latency", 0)?,
                    beat_cycles: num("beat_cycles", 2)?,
                    bus_bytes: to_u32(num("bus_bytes", 2)?, "main", "bus_bytes")?,
                    store_buffer,
                }
            }
        };
        let persistence = matches!(v.get("persistence"), Some(json::Value::Bool(true)));
        let spec = MemArchSpec {
            spm,
            l1,
            l2,
            main,
            persistence,
        };
        spec.validate()
            .map_err(|e| SpecJsonError(format!("invalid spec: {e}")))?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_and_validation() {
        let spec = MemArchSpec::builder()
            .spm(1024)
            .l1(CacheConfig::unified(512))
            .l2(CacheConfig::l2(4096))
            .build()
            .unwrap();
        assert!(spec.has_cache_levels());
        assert_eq!(spec.spm_size(), 1024);
        assert_eq!(spec.cache_bytes(), 512 + 4096);

        // Non-power-of-two cache: rejected, not panicking.
        let bad = MemArchSpec::single_cache(CacheConfig {
            size: 300,
            ..CacheConfig::unified(256)
        });
        assert!(matches!(bad.validate(), Err(SpecError::BadCache { .. })));

        // Scratchpad overlapping main memory.
        let bad = MemArchSpec::spm(0x0020_0000);
        assert!(matches!(bad.validate(), Err(SpecError::SpmTooLarge { .. })));

        // L2 must be unified.
        let bad = MemArchSpec {
            l2: Some(CacheConfig::instr_only(4096)),
            ..MemArchSpec::uncached()
        };
        assert_eq!(bad.validate(), Err(SpecError::L2Scope));

        // Persistence only on single-L1 Table-1 shapes.
        assert!(MemArchSpec::builder()
            .l1(CacheConfig::unified(1024))
            .persistence(true)
            .build()
            .is_ok());
        assert!(matches!(
            MemArchSpec::builder()
                .l1(CacheConfig::unified(1024))
                .l2(CacheConfig::l2(4096))
                .persistence(true)
                .build(),
            Err(SpecError::PersistenceShape(_))
        ));
    }

    #[test]
    fn canonical_drops_disabled_levels() {
        let zero = CacheConfig {
            size: 0,
            ..CacheConfig::unified(64)
        };
        let spec = MemArchSpec {
            spm: Some(SpmSpec {
                size: 0,
                alloc: SpmAllocation::ProfileKnapsack,
            }),
            l1: L1::Split {
                i: Some(zero.clone()),
                d: None,
            },
            l2: Some(zero),
            main: MainMemoryTiming::table1(),
            persistence: false,
        };
        spec.validate().unwrap();
        let canon = spec.canonical();
        assert_eq!(canon, MemArchSpec::uncached());
        // Equal-after-validation specs share one canonical form.
        assert_eq!(canon, MemArchSpec::uncached().canonical());
    }

    #[test]
    fn canonical_normalises_spm_strategies() {
        let fixed = MemArchSpec::spm_with(
            256,
            SpmAllocation::Fixed(vec!["b".into(), "a".into(), "b".into()]),
        );
        match &fixed.canonical().spm.unwrap().alloc {
            SpmAllocation::Fixed(names) => assert_eq!(names, &["a", "b"]),
            other => panic!("{other:?}"),
        }
        let empty = MemArchSpec::spm_with(256, SpmAllocation::Fixed(vec![]));
        assert_eq!(empty.canonical().spm.unwrap().alloc, SpmAllocation::Empty);
        // Uncached Table-1 machine: the hierarchy-aware objective is the
        // region objective.
        let aware = MemArchSpec::spm_with(256, SpmAllocation::WcetAware);
        assert_eq!(
            aware.canonical().spm.unwrap().alloc,
            SpmAllocation::WcetRegion
        );
        // …but not over DRAM or with caches.
        let dram = MemArchSpec {
            main: MainMemoryTiming::dram(10),
            ..MemArchSpec::spm_with(256, SpmAllocation::WcetAware)
        };
        assert_eq!(
            dram.canonical().spm.unwrap().alloc,
            SpmAllocation::WcetAware
        );
    }

    #[test]
    fn labels_match_legacy_formats() {
        assert_eq!(MemArchSpec::spm(1024).label(), "spm 1024");
        assert_eq!(
            MemArchSpec {
                main: MainMemoryTiming::dram(10),
                ..MemArchSpec::spm(1024)
            }
            .label(),
            "spm 1024 (dram 10)"
        );
        let h = MemHierarchyConfig::split_l1(512, 512).with_l2(CacheConfig::l2(4096));
        assert_eq!(MemArchSpec::from_hierarchy(&h).label(), h.label());
        assert_eq!(MemArchSpec::uncached().label(), "uncached");
        let combo = MemArchSpec::builder()
            .spm_with(512, SpmAllocation::WcetAware)
            .split_l1(
                Some(CacheConfig::instr_only(512)),
                Some(CacheConfig::data_only(512)),
            )
            .l2(CacheConfig::l2(4096))
            .build()
            .unwrap();
        assert_eq!(combo.label(), "spm 512 wcet + l1i512+l1d512+l2 4096");
    }

    #[test]
    fn write_policy_canonicalises_on_storeless_levels() {
        // A write-back instruction-only L1 describes the same machine as
        // the write-through one: no store ever reaches it.
        let noisy = MemArchSpec::single_cache(CacheConfig::instr_only(512).write_back());
        let plain = MemArchSpec::single_cache(CacheConfig::instr_only(512));
        assert_eq!(noisy.canonical(), plain.canonical());
        assert_eq!(noisy.label(), plain.label());
        // Same for the instruction half of a split L1 — while the data
        // half's policy is load-bearing and survives.
        let split = MemArchSpec::builder()
            .split_l1(
                Some(CacheConfig::instr_only(512).write_back()),
                Some(CacheConfig::data_only(512).write_back()),
            )
            .build()
            .unwrap();
        match &split.canonical().l1 {
            L1::Split { i, d } => {
                assert_eq!(i.as_ref().unwrap().write_policy, WritePolicy::WriteThrough);
                assert_eq!(d.as_ref().unwrap().write_policy, WritePolicy::WriteBack);
            }
            other => panic!("{other:?}"),
        }
        // A data-serving write-back level is a *different* machine.
        let wb = MemArchSpec::single_cache(CacheConfig::unified(512).write_back());
        let wt = MemArchSpec::single_cache(CacheConfig::unified(512));
        assert_ne!(wb.canonical(), wt.canonical());
        assert_ne!(wb.label(), wt.label());
    }

    #[test]
    fn store_buffer_validation() {
        let ok = MemArchSpec {
            main: MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 6)),
            ..MemArchSpec::uncached()
        };
        ok.validate().unwrap();
        let bad = MemArchSpec {
            main: MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(0, 6)),
            ..MemArchSpec::uncached()
        };
        assert!(matches!(bad.validate(), Err(SpecError::BadMain(_))));
        let bad = MemArchSpec {
            main: MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 0)),
            ..MemArchSpec::uncached()
        };
        assert!(matches!(bad.validate(), Err(SpecError::BadMain(_))));
        // Persistence needs the paper's exact machine: no store buffer,
        // no write-back L1.
        let bad = MemArchSpec {
            persistence: true,
            main: ok.main,
            ..MemArchSpec::single_cache(CacheConfig::unified(1024))
        };
        assert!(matches!(
            bad.validate(),
            Err(SpecError::PersistenceShape(_))
        ));
        let bad = MemArchSpec {
            persistence: true,
            ..MemArchSpec::single_cache(CacheConfig::unified(1024).write_back())
        };
        assert!(matches!(
            bad.validate(),
            Err(SpecError::PersistenceShape(_))
        ));
    }

    #[test]
    fn json_roundtrip_fixed_cases() {
        let specs = vec![
            MemArchSpec::uncached(),
            MemArchSpec::spm(1024),
            MemArchSpec::single_cache(CacheConfig::unified(1024).write_back()),
            MemArchSpec {
                main: MainMemoryTiming::dram(8).with_store_buffer(StoreBuffer::new(4, 6)),
                ..MemArchSpec::single_cache(CacheConfig::data_only(512).write_back())
            },
            MemArchSpec::spm_with(64, SpmAllocation::Empty),
            MemArchSpec::spm_with(256, SpmAllocation::Fixed(vec!["a b".into(), "c\"d".into()])),
            MemArchSpec::single_cache(CacheConfig::set_assoc(
                2048,
                4,
                Replacement::Random { seed: 7 },
            )),
            MemArchSpec::builder()
                .spm_with(512, SpmAllocation::WcetAware)
                .split_l1(Some(CacheConfig::instr_only(512)), None)
                .l2(CacheConfig::l2(8192))
                .main(MainMemoryTiming::dram(12))
                .build()
                .unwrap(),
            MemArchSpec::builder()
                .l1(CacheConfig::unified(1024))
                .persistence(true)
                .build()
                .unwrap(),
        ];
        for spec in specs {
            let text = spec.to_json();
            let back = MemArchSpec::from_json(&text).unwrap_or_else(|e| {
                panic!("{e} while parsing {text}");
            });
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(MemArchSpec::from_json("").is_err());
        assert!(MemArchSpec::from_json("[1,2]").is_err());
        assert!(MemArchSpec::from_json("{\"spm\": {\"alloc\": \"knapsack\"}}").is_err());
        assert!(MemArchSpec::from_json("{\"l1\": {\"unified\": {\"size\": 300}}}").is_err());
        assert!(MemArchSpec::from_json("{} trailing").is_err());
        // Out-of-range sizes are rejected, never silently truncated (a
        // typo'd 2^32+1024 must not parse as a 1 KiB scratchpad).
        assert!(MemArchSpec::from_json("{\"spm\": {\"size\": 4294968320}}").is_err());
        assert!(MemArchSpec::from_json("{\"l1\": {\"unified\": {\"size\": 4294968320}}}").is_err());
        // Unknown write policies and malformed store buffers are schema
        // errors, not silently defaulted.
        assert!(MemArchSpec::from_json(
            "{\"l1\": {\"unified\": {\"size\": 512, \"write_policy\": \"copy-back\"}}}"
        )
        .is_err());
        assert!(MemArchSpec::from_json("{\"main\": {\"store_buffer\": {\"depth\": 4}}}").is_err());
        assert!(
            MemArchSpec::from_json(
                "{\"main\": {\"store_buffer\": {\"depth\": 0, \"drain_cycles\": 6}}}"
            )
            .is_err(),
            "zero-depth buffer fails validation"
        );
    }

    #[test]
    fn json_defaults_are_table1_uncached() {
        let spec = MemArchSpec::from_json("{}").unwrap();
        assert_eq!(spec, MemArchSpec::uncached());
    }

    #[test]
    fn json_integers_read_back_exactly() {
        let num = |text: &str| json::parse(text).unwrap().as_u64();
        assert_eq!(num("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(num("18446744073709551615"), Some(u64::MAX));
        assert_eq!(num("18446744073709551616"), None, "out of range");
        assert_eq!(num("-1"), None);
        assert_eq!(num("1.5"), None);
        assert_eq!(num("1e3"), None);
        assert_eq!(json::parse("-42").unwrap().as_i64(), Some(-42));
        let spec = MemArchSpec::single_cache(CacheConfig::set_assoc(
            2048,
            4,
            Replacement::Random {
                seed: 9_007_199_254_740_993,
            },
        ));
        assert_eq!(MemArchSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn json_nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(json::parse(&nest(json::MAX_DEPTH)).is_ok());
        assert_eq!(
            json::parse(&nest(json::MAX_DEPTH + 1)),
            Err(json::ParseError::TooDeep {
                at: json::MAX_DEPTH
            })
        );
        assert!(matches!(
            json::parse(&"{\"a\":".repeat(1_000_000)),
            Err(json::ParseError::TooDeep { .. })
        ));
    }

    // --- proptest: the validation layer over random specs ------------------

    fn arb_replacement() -> impl Strategy<Value = Replacement> {
        prop_oneof![
            Just(Replacement::Lru),
            Just(Replacement::RoundRobin),
            any::<u64>().prop_map(|seed| Replacement::Random { seed }),
        ]
    }

    fn arb_scope() -> impl Strategy<Value = CacheScope> {
        prop_oneof![
            Just(CacheScope::Unified),
            Just(CacheScope::InstrOnly),
            Just(CacheScope::DataOnly),
        ]
    }

    /// A valid (enabled or disabled) cache level geometry.
    fn arb_cache_geom() -> impl Strategy<Value = CacheConfig> {
        (
            0u32..6,
            2u32..6,
            0u32..3,
            arb_replacement(),
            arb_scope(),
            1u32..5,
        )
            .prop_filter_map(
                "geometry",
                |(size_exp, line_exp, assoc_exp, replacement, scope, hit_latency)| {
                    let size = if size_exp == 0 { 0 } else { 64u32 << size_exp };
                    let line = 1u32 << line_exp;
                    let assoc = 1u32 << assoc_exp;
                    let cfg = CacheConfig {
                        size,
                        line,
                        assoc,
                        replacement,
                        scope,
                        hit_latency,
                        write_policy: WritePolicy::WriteThrough,
                    };
                    (size == 0 || (line <= size && assoc <= size / line)).then_some(cfg)
                },
            )
    }

    /// A valid cache level with either write policy.
    fn arb_cache() -> impl Strategy<Value = CacheConfig> {
        (
            arb_cache_geom(),
            prop_oneof![
                Just(WritePolicy::WriteThrough),
                Just(WritePolicy::WriteBack)
            ],
        )
            .prop_map(|(mut c, wp)| {
                c.write_policy = wp;
                c
            })
    }

    /// `Option<T>` strategy (the vendored proptest has no `option::of`).
    fn opt<S>(s: S) -> impl Strategy<Value = Option<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: Clone + std::fmt::Debug + 'static,
    {
        prop_oneof![Just(None), s.prop_map(Some)]
    }

    fn arb_alloc() -> impl Strategy<Value = SpmAllocation> {
        let name = (0u32..40).prop_map(|n| format!("obj_{n}"));
        prop_oneof![
            Just(SpmAllocation::Empty),
            Just(SpmAllocation::ProfileKnapsack),
            Just(SpmAllocation::WcetAware),
            Just(SpmAllocation::WcetRegion),
            proptest::collection::vec(name, 0..4).prop_map(SpmAllocation::Fixed),
        ]
    }

    fn arb_spec() -> impl Strategy<Value = MemArchSpec> {
        let l1 = prop_oneof![
            Just(L1::None),
            arb_cache().prop_map(L1::Unified),
            (
                opt(arb_cache().prop_map(|mut c| {
                    if c.scope == CacheScope::DataOnly {
                        c.scope = CacheScope::InstrOnly;
                    }
                    c
                })),
                opt(arb_cache().prop_map(|mut c| {
                    if c.scope == CacheScope::InstrOnly {
                        c.scope = CacheScope::DataOnly;
                    }
                    c
                }))
            )
                .prop_map(|(i, d)| L1::Split { i, d }),
        ];
        (
            opt((0u32..=8192, arb_alloc())),
            l1,
            opt(arb_cache().prop_map(|mut c| {
                c.scope = CacheScope::Unified;
                c
            })),
            (
                0u64..20,
                1u64..4,
                1u32..5,
                opt(
                    (1u32..6, 1u64..12).prop_map(|(depth, drain_cycles)| StoreBuffer {
                        depth,
                        drain_cycles,
                    }),
                ),
            ),
        )
            .prop_map(
                |(spm, l1, l2, (latency, beat_cycles, bus_bytes, store_buffer))| MemArchSpec {
                    spm: spm.map(|(size, alloc)| SpmSpec { size, alloc }),
                    l1,
                    l2,
                    main: MainMemoryTiming {
                        latency,
                        beat_cycles,
                        bus_bytes,
                        store_buffer,
                    },
                    persistence: false,
                },
            )
    }

    proptest! {
        /// Random well-formed specs pass validation, and canonicalisation
        /// is an idempotent, validity-preserving, label- and
        /// machine-preserving projection.
        #[test]
        fn canonical_is_idempotent_and_valid(spec in arb_spec()) {
            prop_assert!(spec.validate().is_ok(), "{spec:?}");
            let canon = spec.canonical();
            prop_assert!(canon.validate().is_ok(), "{canon:?}");
            prop_assert_eq!(canon.canonical(), canon.clone());
            // The canonical form never contains a disabled level or an
            // empty scratchpad.
            prop_assert!(canon.spm.as_ref().is_none_or(|s| s.size > 0));
            let enabled = |c: &CacheConfig| c.size > 0;
            match &canon.l1 {
                L1::None => {}
                L1::Unified(c) => prop_assert!(enabled(c)),
                L1::Split { i, d } => {
                    prop_assert!(i.is_some() || d.is_some());
                    prop_assert!(i.as_ref().is_none_or(enabled));
                    prop_assert!(d.as_ref().is_none_or(enabled));
                }
            }
            prop_assert!(canon.l2.as_ref().is_none_or(enabled));
            // Canonicalisation preserves the machine's externally visible
            // descriptors.
            prop_assert_eq!(canon.main, spec.main);
            prop_assert_eq!(canon.spm_size(), spec.spm.as_ref().map_or(0, |s| s.size));
            prop_assert_eq!(canon.label(), spec.label());
        }

        /// JSON round-trips every valid spec exactly.
        #[test]
        fn json_roundtrip(spec in arb_spec()) {
            let text = spec.to_json();
            let back = MemArchSpec::from_json(&text);
            prop_assert_eq!(back.as_ref().ok(), Some(&spec), "{}", text);
        }
    }
}
