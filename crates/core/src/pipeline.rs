//! The per-benchmark experiment pipeline.
//!
//! [`Pipeline::run`] is the single entry point: it takes a declarative
//! [`MemArchSpec`] (scratchpad + cache levels + main-memory timing) and
//! routes to link → simulate (trace-replay when eligible) → analyze. The
//! legacy `run_*` shims were removed in this release after two deprecated
//! releases; `tests/spec_differential.rs` keeps the golden pins on
//! `run(&spec)`.

use crate::CoreError;
use spmlab_alloc::energy::EnergyModel;
use spmlab_alloc::{knapsack, wcet_aware};
use spmlab_cc::{ObjModule, SpmAssignment};
use spmlab_isa::annot::AnnotationSet;
use spmlab_isa::archspec::{MemArchSpec, SpmAllocation, SpmSpec};
use spmlab_isa::hierarchy::{MainMemoryTiming, L1};
use spmlab_isa::mem::MemoryMap;
use spmlab_sim::{
    simulate, simulate_with_trace, MachineConfig, MemStats, MemTrace, Profile, SimError,
    SimOptions, SimResult, Tally,
};
use spmlab_wcet::cache::ClassifyStats;
use spmlab_wcet::{
    analyze_with, classify, cost, prepare, AnalysisBudget, Classified, IpetModels, Prepared,
    WcetConfig, WcetError,
};
use spmlab_workloads::Benchmark;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Outcome of running one benchmark under one memory configuration:
/// average-case simulation plus static WCET bound — one data point of the
/// paper's figures.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Human-readable configuration label (e.g. `"spm 1024"`).
    pub label: String,
    /// Simulated cycles on the pipeline's input (average case).
    pub sim_cycles: u64,
    /// Static WCET bound in cycles.
    pub wcet_cycles: u64,
    /// Final checksum (validated against the host twin).
    pub checksum: i32,
    /// Estimated energy of the simulated run (nJ).
    pub energy_nj: f64,
    /// Scratchpad bytes occupied (0 for cache configurations).
    pub spm_used: u32,
    /// Objects placed in the scratchpad.
    pub spm_objects: Vec<String>,
    /// Cache classification statistics (cache configurations only).
    pub classify: ClassifyStats,
    /// `true` when the WCET analysis exhausted its [`AnalysisBudget`] and
    /// widened to a conservative (still sound, less precise) bound — the
    /// sweep layer reports such points as `Degraded`.
    pub degraded: bool,
}

impl ConfigResult {
    /// The paper's headline metric: WCET bound over simulated cycles.
    pub fn ratio(&self) -> f64 {
        self.wcet_cycles as f64 / self.sim_cycles.max(1) as f64
    }
}

/// One spec's raw measurement: everything [`ConfigResult`] needs except
/// the label and the (capacity-dependent) energy figure. Sweep points
/// whose canonical specs are effectively identical share one measurement
/// (see `sweep::spec_sweep`).
#[derive(Debug, Clone)]
pub(crate) struct ArchMeasurement {
    pub sim_cycles: u64,
    pub wcet_cycles: u64,
    pub checksum: i32,
    pub mem_stats: MemStats,
    pub classify: ClassifyStats,
    pub spm_used: u32,
    pub spm_objects: Vec<String>,
    /// The analyzer widened under its budget (see [`ConfigResult::degraded`]).
    pub widened: bool,
}

/// What the members of one sweep executor unit share (see
/// `sweep::spec_sweep_with_session`): the latency-0 trace tally of its
/// priceable members (see [`Pipeline::prices_latencies`]) and one cache
/// classification per analyzer configuration its members route to (a
/// paper-mode twin classifies apart from its full-flag siblings). It
/// lives only as long as its unit; [`Pipeline::run`] is a unit of one.
#[derive(Default)]
pub(crate) struct UnitShare {
    tally: Option<Tally>,
    classified: Vec<Classified>,
}

/// The machine a canonical spec measures: `canon` with its store buffer
/// dropped when no store can reach it
/// ([`MemHierarchyConfig::buffers_stores`](spmlab_isa::hierarchy::MemHierarchyConfig::buffers_stores)).
/// Behind an absorbing write-back level the buffer is idle, so the
/// buffered point's simulation and analysis are those of its unbuffered
/// twin; measuring the twin lets it price from a shared latency-0 tally
/// and share the twin's sweep memo entry.
pub(crate) fn measured_machine(canon: &MemArchSpec) -> MemArchSpec {
    let mut m = canon.clone();
    if !canon.hierarchy().buffers_stores() {
        m.main.store_buffer = None;
    }
    m
}

/// Link + recording of one scratchpad configuration, shared by every spec
/// that resolves to the same `(capacity, assignment)` — an N-timing sweep
/// links and interprets once, then replays.
struct SpmArtifacts {
    linked: spmlab_cc::LinkedProgram,
    recorded_cycles: u64,
    recorded_stats: MemStats,
    checksum: i32,
    spm_used: u32,
    trace: MemTrace,
}

/// A benchmark prepared for configuration sweeps: compiled once, linked
/// once for the cache/hierarchy branch, profiled once on the baseline
/// (exactly the paper's workflow — the knapsack uses the same access
/// counts for every capacity).
pub struct Pipeline {
    benchmark: Benchmark,
    module: ObjModule,
    input: Vec<i32>,
    expected_checksum: i32,
    baseline_profile: Profile,
    /// The no-scratchpad link every cache/hierarchy point runs — shared so
    /// an N-point sweep links once, not N times.
    no_spm_link: spmlab_cc::LinkedProgram,
    /// The hierarchy-independent analysis stage of `no_spm_link`, built on
    /// first use (so pipeline set-up does not pay for it) with automatic
    /// loop bounds, which every routed configuration enables. A
    /// preparation error is kept and fails every point that needs it.
    no_spm_prepared: OnceLock<Result<Prepared, WcetError>>,
    /// The baseline execution's memory trace. Hierarchy points replay it
    /// instead of re-interpreting the program.
    trace: MemTrace,
    energy: EnergyModel,
    sim_options: SimOptions,
    /// Memoised WCET-driven allocations, keyed by capacity + objective:
    /// one compute-once cell per key (see [`Pipeline::wcet_alloc_memo`]).
    wcet_allocs: Mutex<BTreeMap<String, Arc<Mutex<Option<SpmAssignment>>>>>,
    /// The bounds of every allocation trial the WCET-driven greedies have
    /// run, shared across capacities and objectives.
    alloc_trials: wcet_aware::TrialMemo,
    /// The IPET models of every function shape this pipeline's analyses
    /// have solved: the no-scratchpad program's, every scratchpad link's
    /// and every allocation trial's share one store.
    ipet_models: Arc<IpetModels>,
    /// Memoised scratchpad links/recordings, keyed by capacity + assignment.
    spm_links: Mutex<BTreeMap<String, Arc<SpmArtifacts>>>,
    /// Per-point resource budget stamped onto every analyzer config; the
    /// default imposes no limits. Exhausting it degrades precision (the
    /// point is tagged `degraded`), never soundness.
    analysis_budget: AnalysisBudget,
}

impl Pipeline {
    /// Prepares `benchmark` with its typical input.
    ///
    /// # Errors
    ///
    /// Compile, link or baseline-simulation failures.
    pub fn new(benchmark: &Benchmark) -> Result<Pipeline, CoreError> {
        Pipeline::with_input(benchmark, benchmark.typical_input())
    }

    /// Prepares `benchmark` with a custom input (e.g. the worst case).
    ///
    /// The pipeline clones the benchmark, so generated (owned) benchmark
    /// values work exactly like the shipped statics.
    ///
    /// # Errors
    ///
    /// Compile, link or baseline-simulation failures.
    pub fn with_input(benchmark: &Benchmark, input: Vec<i32>) -> Result<Pipeline, CoreError> {
        let _prep = spmlab_obs::span_labeled("prepare", &benchmark.name);
        let module = {
            let _s = spmlab_obs::span("compile");
            crate::faults::fault_point("compile")?;
            benchmark.compile()?
        };
        let sim_options = SimOptions::default();
        let baseline = {
            let _s = spmlab_obs::span("link");
            crate::faults::fault_point("link")?;
            benchmark.link_with_input(
                &module,
                &MemoryMap::no_spm(),
                &SpmAssignment::none(),
                &input,
            )?
        };
        // The baseline run feeds the allocator's profile and records the
        // memory trace the hierarchy sweep replays; per-instruction
        // statistics are only needed by the soundness tests, not here.
        let baseline_options = SimOptions {
            insn_stats: false,
            ..sim_options.clone()
        };
        let (res, trace) = simulate_with_trace(&baseline.exe, &baseline_options)?;
        let expected_checksum =
            benchmark
                .try_reference_checksum(&input)
                .map_err(|e| CoreError::Oracle {
                    benchmark: benchmark.name.to_string(),
                    reason: e,
                })?;
        let got = res
            .read_global(&baseline.exe, "checksum")
            .unwrap_or(expected_checksum.wrapping_add(1));
        if got != expected_checksum {
            return Err(CoreError::ChecksumMismatch {
                benchmark: benchmark.name.to_string(),
                expected: expected_checksum,
                got,
            });
        }
        let ipet_models = Arc::new(IpetModels::new());
        Ok(Pipeline {
            benchmark: benchmark.clone(),
            module,
            input,
            expected_checksum,
            baseline_profile: res.profile,
            no_spm_link: baseline,
            no_spm_prepared: OnceLock::new(),
            // Every cache geometry of a sweep tallies this trace once:
            // worth a run index (scratchpad traces are tallied at most
            // twice and go without).
            trace: trace.with_run_index(),
            energy: EnergyModel::default(),
            sim_options,
            wcet_allocs: Mutex::new(BTreeMap::new()),
            alloc_trials: wcet_aware::TrialMemo::with_ipet_models(ipet_models.clone()),
            ipet_models,
            spm_links: Mutex::new(BTreeMap::new()),
            analysis_budget: AnalysisBudget::unlimited(),
        })
    }

    /// Sets the per-point [`AnalysisBudget`] every subsequent analysis
    /// runs under. Exhausting it yields a widened-but-sound bound tagged
    /// `degraded`, never an unsound one.
    pub fn set_analysis_budget(&mut self, budget: AnalysisBudget) {
        self.analysis_budget = budget;
    }

    /// The baseline execution's recorded trace, serialized in its wire
    /// format (see `spmlab_sim::trace`). The bytes round-trip through
    /// [`MemTrace::from_bytes`] and replay on any hierarchy.
    pub fn trace_bytes(&self) -> Vec<u8> {
        self.trace.to_bytes()
    }

    /// The per-point analysis budget in force.
    pub fn analysis_budget(&self) -> AnalysisBudget {
        self.analysis_budget
    }

    /// Simulation options for sweep points: identical timing, but with the
    /// per-symbol profile and per-instruction statistics collection turned
    /// off — sweep results only consume cycles, memory statistics and the
    /// final checksum, so the bookkeeping would be pure hot-loop overhead.
    fn sweep_options(&self) -> SimOptions {
        SimOptions {
            insn_stats: false,
            profile: false,
            ..self.sim_options.clone()
        }
    }

    /// The benchmark under test.
    pub fn benchmark(&self) -> &Benchmark {
        &self.benchmark
    }

    /// The compiled module (for size accounting).
    pub fn module(&self) -> &ObjModule {
        &self.module
    }

    /// The input in use.
    pub fn input(&self) -> &[i32] {
        &self.input
    }

    /// The baseline (no scratchpad, no cache) profile.
    pub fn baseline_profile(&self) -> &Profile {
        &self.baseline_profile
    }

    fn check(&self, res: &SimResult, exe: &spmlab_isa::Executable) -> Result<i32, CoreError> {
        let got = res
            .read_global(exe, "checksum")
            .unwrap_or(self.expected_checksum.wrapping_add(1));
        if got != self.expected_checksum {
            return Err(CoreError::ChecksumMismatch {
                benchmark: self.benchmark.name.to_string(),
                expected: self.expected_checksum,
                got,
            });
        }
        Ok(got)
    }

    // -----------------------------------------------------------------
    // The unified entry point.
    // -----------------------------------------------------------------

    /// Runs one memory-architecture spec end to end: allocate (per the
    /// spec's scratchpad strategy), link, simulate — replaying the
    /// recorded memory trace instead of re-interpreting, unless a
    /// recorded cycle-register value diverges under the spec's timing —
    /// and statically analyze with the analyzer configuration the spec
    /// implies:
    ///
    /// | shape                                  | analysis                      |
    /// |----------------------------------------|-------------------------------|
    /// | no cache levels                        | region timing over its main memory |
    /// | single unified-descriptor L1, Table-1  | paper mode: MUST only (+persistence on request) |
    /// | anything else with cache levels        | multi-level (Hardy–Puaut) MUST×MAY |
    ///
    /// Every shape runs the one multi-level analyzer
    /// (`spmlab_wcet::multilevel`) over the spec's hierarchy; with no
    /// cache level it classifies nothing and prices every access by its
    /// region. Paper mode is its baseline flags —
    /// per-function TOP entry states, no MAY pass, no interprocedural
    /// pass ([`WcetConfig::with_cache`]) — plus, on request, the
    /// first-miss persistence extension. Write-policy-dependent shapes
    /// (any write-back level, or a store buffer) always take the full
    /// flags with the charge-at-store write-back rule
    /// (`spmlab_wcet::dirty`). They replay from the recorded trace like
    /// every other shape.
    ///
    /// (Paper mode reproduces the paper's ARM7/aiT setup, and its numbers
    /// are pinned by `tests/spec_differential.rs` and
    /// `tests/paper_mode_golden.rs`. The full flags can be *tighter* on
    /// the overlap, so the routing is part of the observable contract: a
    /// bare unified L1 over Table-1 main memory reports the paper-mode
    /// bound.)
    ///
    /// # Errors
    ///
    /// [`CoreError::Spec`] for invalid specs; link, allocation,
    /// simulation, WCET or checksum failures.
    pub fn run(&self, spec: &MemArchSpec) -> Result<ConfigResult, CoreError> {
        spec.validate().map_err(CoreError::Spec)?;
        let canon = spec.canonical();
        let m = self.measure_spec(&canon, &mut UnitShare::default())?;
        Ok(self.package_spec(spec, &m))
    }

    /// Wraps a call to the WCET analyzer, on the pipeline's IPET models,
    /// in an `"analyze"` span.
    fn analyzed(
        &self,
        exe: &spmlab_isa::Executable,
        wcfg: &WcetConfig,
        annot: &spmlab_isa::annot::AnnotationSet,
    ) -> Result<spmlab_wcet::WcetResult, CoreError> {
        let _s = spmlab_obs::span("analyze");
        crate::faults::fault_point("analyze")?;
        Ok(analyze_with(exe, wcfg, annot, &self.ipet_models)?)
    }

    /// The analyzer configuration for a canonical spec (see
    /// [`Pipeline::run`]'s routing table), stamped with the pipeline's
    /// [`AnalysisBudget`].
    pub(crate) fn wcet_config_for(&self, canon: &MemArchSpec) -> WcetConfig {
        WcetConfig {
            budget: self.analysis_budget,
            ..Pipeline::routed_config(canon)
        }
    }

    /// The budget-free routing decision for a canonical spec.
    fn routed_config(canon: &MemArchSpec) -> WcetConfig {
        if canon.persistence {
            if let L1::Unified(c) = &canon.l1 {
                return WcetConfig::with_cache_persistence(c.clone());
            }
        }
        if canon.spm.is_none()
            && canon.l2.is_none()
            && canon.main == MainMemoryTiming::table1()
            && !canon.hierarchy().write_policy_dependent()
        {
            if let L1::Unified(c) = &canon.l1 {
                return WcetConfig::with_cache(c.clone());
            }
        }
        WcetConfig::with_hierarchy(canon.hierarchy())
    }

    /// The expensive half of [`Pipeline::run`]: measures one *canonical*
    /// spec. Label-free and energy-free so sweep points whose canonical
    /// specs are effectively identical can share one measurement.
    ///
    /// `share` is what the no-scratchpad members of one sweep unit —
    /// specs that differ only in their main-memory timing — share: the
    /// first member that needs the latency-0 tally or the cache
    /// classification fills its slot, the others reuse it.
    /// [`Pipeline::run`] is the unit of one, passing empty slots.
    pub(crate) fn measure_spec(
        &self,
        canon: &MemArchSpec,
        share: &mut UnitShare,
    ) -> Result<ArchMeasurement, CoreError> {
        let _s = spmlab_obs::span_with("measure-spec", || canon.label());
        crate::faults::fault_point("measure-spec")?;
        let canon = &measured_machine(canon);
        match &canon.spm {
            Some(spm) => self.measure_spm(canon, spm),
            None => self.measure_no_spm(canon, share),
        }
    }

    /// Whether `canon` may share a latency-0 tally with specs that differ
    /// from it only in `main.latency`: a no-scratchpad spec without a
    /// store buffer, on a pipeline whose recorded trace has no
    /// cycle-register reads. Such points replay the same cache geometry,
    /// so one walk of the trace prices them all exactly (see
    /// `spmlab_sim::trace`). `canon` is a [`measured_machine`], so an idle
    /// buffer has already been dropped and does not disqualify it.
    fn prices_latencies(&self, canon: &MemArchSpec) -> bool {
        canon.spm.is_none() && canon.main.store_buffer.is_none() && self.trace.cycle_reads() == 0
    }

    /// The cheap half of [`Pipeline::run`]: labels a measurement and
    /// prices its energy for the *actual* configuration (capacity enters
    /// the energy model even when timing is shared).
    pub(crate) fn package_spec(&self, spec: &MemArchSpec, m: &ArchMeasurement) -> ConfigResult {
        let canon = spec.canonical();
        let cache_bytes = canon.cache_bytes();
        ConfigResult {
            label: spec.label(),
            sim_cycles: m.sim_cycles,
            wcet_cycles: m.wcet_cycles,
            checksum: m.checksum,
            energy_nj: self.energy.run_energy_nj(
                &m.mem_stats,
                m.sim_cycles,
                canon.spm_size(),
                (cache_bytes > 0).then_some(cache_bytes),
            ),
            spm_used: m.spm_used,
            spm_objects: m.spm_objects.clone(),
            classify: m.classify,
            degraded: m.widened,
        }
    }

    /// Attempts to price `hierarchy` from `trace`, bumping the
    /// `sweep_replay` counter on success. Machines the trace can price
    /// from a latency-0 tally take it from `tally`, walking the trace
    /// only when the slot is still empty. Returns `Ok(None)` only when
    /// the replay diverged on a recorded cycle-register value, where the
    /// caller should simulate in full instead. Real replay failures
    /// (watchdog expiry) propagate.
    fn try_replay(
        trace: &MemTrace,
        hierarchy: &spmlab_isa::hierarchy::MemHierarchyConfig,
        tally: &mut Option<Tally>,
    ) -> Result<Option<(u64, MemStats)>, CoreError> {
        let replayed = if trace.priceable(hierarchy) {
            let shared = match tally {
                Some(t) => t,
                None => tally.insert(trace.tally(hierarchy)?),
            };
            shared.price(&hierarchy.main)
        } else {
            trace.replay(hierarchy)
        };
        match replayed {
            Ok((cycles, stats)) => {
                spmlab_obs::counter("sweep_replay", 1);
                Ok(Some((cycles, stats)))
            }
            Err(SimError::ReplayDivergence { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Cache/hierarchy branch: runs on the shared no-scratchpad link,
    /// replaying the baseline execution's memory trace under the spec's
    /// hierarchy (bit-identical to a fresh simulation, minus the
    /// interpreter); falls back to full simulation when the replay
    /// diverges (see [`Pipeline::try_replay`]). The replayed
    /// memory image equals the baseline's, so its validated checksum
    /// carries over.
    ///
    /// The analysis runs on the pipeline's prepared no-scratchpad program;
    /// under an unlimited budget, hierarchy-path members of a unit share
    /// one classification and only cost and IPET run per point.
    fn measure_no_spm(
        &self,
        canon: &MemArchSpec,
        share: &mut UnitShare,
    ) -> Result<ArchMeasurement, CoreError> {
        let linked = &self.no_spm_link;
        let hierarchy = canon.hierarchy();
        let mut own_tally = None;
        let tally = if self.prices_latencies(canon) {
            &mut share.tally
        } else {
            &mut own_tally
        };
        // The trace replays any hierarchy, write-back and store-buffered
        // machines included. A replay divergence (a recorded MMIO
        // cycle-register value that differs under the target timing) falls
        // back to full simulation instead of failing the point.
        let (sim_cycles, mem_stats, checksum) =
            match Pipeline::try_replay(&self.trace, &hierarchy, tally)? {
                Some((cycles, stats)) => (cycles, stats, self.expected_checksum),
                None => {
                    spmlab_obs::counter("sweep_full_sim", 1);
                    let sim = simulate(
                        &linked.exe,
                        &MachineConfig::with_hierarchy(hierarchy.clone()),
                        &self.sweep_options(),
                    )?;
                    let checksum = self.check(&sim, &linked.exe)?;
                    (sim.cycles, sim.mem_stats, checksum)
                }
            };
        let wcet = {
            let _s = spmlab_obs::span("analyze");
            crate::faults::fault_point("analyze")?;
            let wcfg = self.wcet_config_for(canon);
            debug_assert!(wcfg.auto_loop_bounds, "no_spm_prepared assumes auto bounds");
            let prepared = self.no_spm_prepared()?;
            let mut own_classified = Vec::new();
            let slots = if wcfg.budget.is_limited() {
                &mut own_classified
            } else {
                &mut share.classified
            };
            let i = match slots.iter().position(|c| c.serves(&wcfg)) {
                Some(i) => i,
                None => {
                    slots.push(classify(prepared, &linked.exe, &wcfg));
                    slots.len() - 1
                }
            };
            cost(prepared, &linked.exe, &wcfg, &slots[i], &self.ipet_models)?
        };
        Ok(ArchMeasurement {
            sim_cycles,
            wcet_cycles: wcet.wcet_cycles,
            checksum,
            mem_stats,
            classify: wcet.total_classify(),
            spm_used: 0,
            spm_objects: Vec::new(),
            widened: wcet.widened,
        })
    }

    /// Scratchpad branch: resolves the allocation strategy, links and
    /// interprets once per `(capacity, assignment)` (memoised), then
    /// prices the recorded trace under the spec's hierarchy and timing.
    fn measure_spm(
        &self,
        canon: &MemArchSpec,
        spm: &SpmSpec,
    ) -> Result<ArchMeasurement, CoreError> {
        let wcfg = self.wcet_config_for(canon);
        let assignment = {
            let _s = spmlab_obs::span("alloc");
            crate::faults::fault_point("alloc")?;
            self.resolve_assignment(spm, &wcfg)?
        };
        let arts = self.spm_artifacts(spm.size, &assignment)?;
        let hierarchy = canon.hierarchy();
        let recording_is_target =
            !canon.has_cache_levels() && canon.main == MainMemoryTiming::table1();
        let (sim_cycles, mem_stats) = if recording_is_target {
            // The recording machine *is* the uncached Table-1 machine.
            spmlab_obs::counter("sweep_recorded_reuse", 1);
            (arts.recorded_cycles, arts.recorded_stats.clone())
        } else if let Some(replayed) = Pipeline::try_replay(&arts.trace, &hierarchy, &mut None)? {
            replayed
        } else {
            spmlab_obs::counter("sweep_full_sim", 1);
            let sim = simulate(
                &arts.linked.exe,
                &MachineConfig::with_hierarchy(hierarchy.clone()),
                &self.sweep_options(),
            )?;
            self.check(&sim, &arts.linked.exe)?;
            (sim.cycles, sim.mem_stats)
        };
        let wcet = self.analyzed(&arts.linked.exe, &wcfg, &arts.linked.annotations)?;
        Ok(ArchMeasurement {
            sim_cycles,
            wcet_cycles: wcet.wcet_cycles,
            checksum: arts.checksum,
            mem_stats,
            classify: wcet.total_classify(),
            spm_used: arts.spm_used,
            spm_objects: assignment.iter().map(str::to_string).collect(),
            widened: wcet.widened,
        })
    }

    /// Maps a scratchpad strategy to a concrete assignment. WCET-driven
    /// allocations are memoised per capacity + objective, and every greedy
    /// trials through the pipeline's one [`wcet_aware::TrialMemo`], so an
    /// assignment is linked and analysed once per objective however many
    /// capacities trial it.
    fn resolve_assignment(
        &self,
        spm: &SpmSpec,
        wcfg: &WcetConfig,
    ) -> Result<SpmAssignment, CoreError> {
        match &spm.alloc {
            SpmAllocation::Empty => Ok(SpmAssignment::none()),
            SpmAllocation::Fixed(names) => Ok(SpmAssignment::of(names.iter().map(String::as_str))),
            SpmAllocation::ProfileKnapsack => Ok(knapsack::allocate(
                &self.module,
                &self.baseline_profile,
                spm.size,
                &self.energy,
            )
            .assignment),
            SpmAllocation::WcetRegion => self.region_alloc(spm.size),
            SpmAllocation::WcetAware => {
                // The portfolio fallback re-scores the region-timing greedy
                // result, which is memoised per capacity — one region
                // greedy serves the WcetRegion specs and every WcetAware
                // objective at that capacity.
                let region = self.region_alloc(spm.size)?;
                self.wcet_alloc_memo(format!("aware|{}|{wcfg:?}", spm.size), || {
                    self.counting_trials(|trials| {
                        trials.allocate_hierarchy_aware(
                            &self.module,
                            spm.size,
                            &AnnotationSet::new(),
                            wcfg,
                            Some(&region),
                        )
                    })
                })
            }
        }
    }

    /// The memoised region-timing greedy allocation for one capacity.
    fn region_alloc(&self, size: u32) -> Result<SpmAssignment, CoreError> {
        self.wcet_alloc_memo(format!("region|{size}"), || {
            self.counting_trials(|trials| {
                trials.allocate_with(
                    &self.module,
                    size,
                    &AnnotationSet::new(),
                    &WcetConfig::region_timing(),
                )
            })
        })
    }

    /// Runs one greedy on the pipeline's trial memo and reports the
    /// memo's hits and misses as `alloc_trial_memo_hit` /
    /// `alloc_trial_memo_miss` counters.
    fn counting_trials(
        &self,
        greedy: impl FnOnce(
            &wcet_aware::TrialMemo,
        ) -> Result<wcet_aware::WcetAllocation, wcet_aware::WcetAllocError>,
    ) -> Result<SpmAssignment, CoreError> {
        let res = greedy(&self.alloc_trials);
        let (hits, misses) = self.alloc_trials.take_counts();
        spmlab_obs::counter("alloc_trial_memo_hit", hits);
        spmlab_obs::counter("alloc_trial_memo_miss", misses);
        Ok(res?.assignment)
    }

    /// The compute-once memo cell for `key`: the first caller computes
    /// while later callers for the same key wait, then share its result.
    /// An error or a panic is not cached — it fails its own caller, and
    /// the next caller computes afresh.
    fn wcet_alloc_memo(
        &self,
        key: String,
        compute: impl FnOnce() -> Result<SpmAssignment, CoreError>,
    ) -> Result<SpmAssignment, CoreError> {
        let cell = self
            .wcet_allocs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default()
            .clone();
        // A panicking computation poisons the cell with `None` inside.
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(a) = slot.as_ref() {
            spmlab_obs::counter("alloc_memo_hit", 1);
            return Ok(a.clone());
        }
        spmlab_obs::counter("alloc_memo_miss", 1);
        let a = compute()?;
        *slot = Some(a.clone());
        Ok(a)
    }

    /// Links and interprets one scratchpad configuration (memoised): the
    /// allocation, link and execution happen a single time per
    /// `(capacity, assignment)`; each timing/hierarchy re-prices the
    /// recorded trace.
    fn spm_artifacts(
        &self,
        size: u32,
        assignment: &SpmAssignment,
    ) -> Result<Arc<SpmArtifacts>, CoreError> {
        let key = format!("{size}|{assignment:?}");
        if let Some(a) = self
            .spm_links
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            spmlab_obs::counter("spm_link_memo_hit", 1);
            return Ok(a.clone());
        }
        spmlab_obs::counter("spm_link_memo_miss", 1);
        let _s = spmlab_obs::span("spm-link");
        crate::faults::fault_point("link")?;
        let map = MemoryMap::with_spm(size);
        let linked = self
            .benchmark
            .link_with_input(&self.module, &map, assignment, &self.input)?;
        let (recorded, trace) = simulate_with_trace(&linked.exe, &self.sweep_options())?;
        let checksum = self.check(&recorded, &linked.exe)?;
        let spm_used = linked
            .exe
            .bytes_in_region(spmlab_isa::mem::RegionKind::Scratchpad) as u32;
        let arts = Arc::new(SpmArtifacts {
            recorded_cycles: recorded.cycles,
            recorded_stats: recorded.mem_stats.clone(),
            checksum,
            spm_used,
            trace,
            linked,
        });
        Ok(self
            .spm_links
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(arts)
            .clone())
    }

    /// The no-scratchpad executable the cache/hierarchy points run (memo
    /// key derivation reads its image layout and annotations).
    pub(crate) fn no_spm_link(&self) -> &spmlab_cc::LinkedProgram {
        &self.no_spm_link
    }

    /// The prepared analysis of [`Pipeline::no_spm_link`], built on first
    /// use; its error, if preparation failed.
    pub(crate) fn no_spm_prepared(&self) -> Result<&Prepared, CoreError> {
        let linked = &self.no_spm_link;
        self.no_spm_prepared
            .get_or_init(|| prepare(&linked.exe, &linked.annotations, true))
            .as_ref()
            .map_err(|e| CoreError::Wcet(e.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_isa::cachecfg::CacheConfig;
    use spmlab_isa::hierarchy::MemHierarchyConfig;
    use spmlab_workloads::{INSERTSORT, MULTISORT};

    #[test]
    fn spm_and_cache_branches_work() {
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let base = p.run(&MemArchSpec::uncached()).unwrap();
        let spm = p.run(&MemArchSpec::spm(512)).unwrap();
        let cache = p
            .run(&MemArchSpec::single_cache(CacheConfig::unified(512)))
            .unwrap();
        // All three agree on the checksum (validated internally) and WCET
        // bounds the simulation everywhere.
        assert!(base.wcet_cycles >= base.sim_cycles);
        assert!(spm.wcet_cycles >= spm.sim_cycles);
        assert!(cache.wcet_cycles >= cache.sim_cycles);
        // The scratchpad helps both metrics.
        assert!(spm.sim_cycles < base.sim_cycles);
        assert!(spm.wcet_cycles < base.wcet_cycles);
        assert!(!spm.spm_objects.is_empty());
        assert!(spm.spm_used > 0);
    }

    #[test]
    fn wcet_ratio_sensible() {
        let p = Pipeline::with_input(
            &MULTISORT,
            spmlab_workloads::inputs::random_ints(24, 9, -50, 50),
        )
        .unwrap();
        let spm = p.run(&MemArchSpec::spm(1024)).unwrap();
        assert!(spm.ratio() >= 1.0);
    }

    #[test]
    fn spm_composes_with_hierarchy() {
        // The spec the legacy API could not express: scratchpad + caches
        // in one machine. Soundness and the obvious orderings must hold.
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let spec = MemArchSpec::builder()
            .spm(256)
            .split_l1(
                Some(CacheConfig::instr_only(256)),
                Some(CacheConfig::data_only(256)),
            )
            .l2(CacheConfig::l2(2048))
            .build()
            .unwrap();
        let combo = p.run(&spec).unwrap();
        assert!(combo.wcet_cycles >= combo.sim_cycles, "sound");
        assert!(combo.spm_used > 0, "scratchpad actually used");
        // Caching the main-memory traffic cannot slow the simulation
        // versus the same scratchpad over uncached main memory.
        let spm_only = p.run(&MemArchSpec::spm(256)).unwrap();
        assert!(combo.sim_cycles <= spm_only.sim_cycles);
        assert_eq!(combo.checksum, spm_only.checksum);
    }

    #[test]
    fn allocation_cells_compute_once_and_cache_no_failure() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let a = SpmAssignment::of(["main"]);
        // Concurrent callers for one key wait on a single computation.
        // The callers start together; the computation's pause only widens
        // the window in which the others arrive while it runs.
        let runs = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    let got = p.wcet_alloc_memo(String::from("k"), || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(a.clone())
                    });
                    assert_eq!(got.unwrap(), a);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        // An error fails its own caller only; the next caller computes.
        let err = p.wcet_alloc_memo(String::from("e"), || {
            Err(CoreError::Injected("alloc".into()))
        });
        assert!(err.is_err());
        assert_eq!(
            p.wcet_alloc_memo(String::from("e"), || Ok(a.clone()))
                .unwrap(),
            a
        );
        // So does a panic, which poisons the cell's lock.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.wcet_alloc_memo(String::from("p"), || panic!("greedy panicked"))
        }));
        assert!(panicked.is_err());
        assert_eq!(
            p.wcet_alloc_memo(String::from("p"), || Ok(a.clone()))
                .unwrap(),
            a
        );
    }

    #[test]
    fn hierarchy_aware_allocation_beats_region_objective() {
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let hierarchy = MemHierarchyConfig::split_l1(128, 128);
        let aware = p
            .run(&MemArchSpec {
                spm: Some(SpmSpec {
                    size: 512,
                    alloc: SpmAllocation::WcetAware,
                }),
                ..MemArchSpec::from_hierarchy(&hierarchy)
            })
            .unwrap();
        let region = p
            .run(&MemArchSpec {
                spm: Some(SpmSpec {
                    size: 512,
                    alloc: SpmAllocation::WcetRegion,
                }),
                ..MemArchSpec::from_hierarchy(&hierarchy)
            })
            .unwrap();
        assert!(
            aware.wcet_cycles <= region.wcet_cycles,
            "hierarchy-aware {} vs region-objective {}",
            aware.wcet_cycles,
            region.wcet_cycles
        );
        assert!(aware.wcet_cycles >= aware.sim_cycles);
        assert!(region.wcet_cycles >= region.sim_cycles);
    }
}
