//! The per-benchmark experiment pipeline.
//!
//! [`Pipeline::run`] is the single entry point: it takes a declarative
//! [`MemArchSpec`] (scratchpad + cache levels + main-memory timing) and
//! measures it as a sweep plan of one point. Every point measures through
//! one path over a link, the no-scratchpad baseline being the capacity-0
//! link: resolve the link, price its recorded trace under the point's
//! hierarchy (trace replay), then analyze its program, prepared once per
//! link.

use crate::plan::{Rep, SweepPlan};
use crate::CoreError;
use spmlab_alloc::energy::EnergyModel;
use spmlab_alloc::{knapsack, wcet_aware};
use spmlab_cc::{LinkedProgram, ObjModule, SpmAssignment};
use spmlab_isa::annot::AnnotationSet;
use spmlab_isa::archspec::{MemArchSpec, SpmAllocation, SpmSpec};
use spmlab_isa::hierarchy::{MainMemoryTiming, L1};
use spmlab_isa::mem::MemoryMap;
use spmlab_isa::Executable;
use spmlab_sim::{
    simulate, simulate_with_trace, MachineConfig, MemStats, MemTrace, Profile, SimError,
    SimOptions, SimResult, Tally,
};
use spmlab_wcet::cache::ClassifyStats;
use spmlab_wcet::{
    classify, cost, prepare, Classified, IpetModels, Prepared, WcetConfig, WcetError,
};
use spmlab_workloads::Benchmark;
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
    /// `true` when a WCET fixpoint hit its structural iteration cap and
    /// widened to a conservative (still sound, less precise) bound — the
    /// sweep layer, its checkpoint lines and its reports mark such points
    /// degraded.
    pub degraded: bool,
}

/// Equality as a checkpoint keeps it: the energy figure compares by its
/// IEEE bit pattern.
impl PartialEq for ConfigResult {
    fn eq(&self, other: &ConfigResult) -> bool {
        self.label == other.label
            && self.sim_cycles == other.sim_cycles
            && self.wcet_cycles == other.wcet_cycles
            && self.checksum == other.checksum
            && self.energy_nj.to_bits() == other.energy_nj.to_bits()
            && self.spm_used == other.spm_used
            && self.spm_objects == other.spm_objects
            && self.classify == other.classify
            && self.degraded == other.degraded
    }
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
/// (see `plan::SweepPlan`).
#[derive(Debug, Clone)]
pub(crate) struct ArchMeasurement {
    pub sim_cycles: u64,
    pub wcet_cycles: u64,
    pub mem_stats: MemStats,
    pub classify: ClassifyStats,
    pub spm_used: u32,
    pub spm_objects: Vec<String>,
    /// A fixpoint hit its structural cap (see [`ConfigResult::degraded`]).
    pub widened: bool,
}

/// One linked executable of the benchmark and everything measured about
/// it once: the recorded trace of its checksum-checked run, which every
/// hierarchy prices, and the hierarchy-independent analysis stage, which
/// every analyzer configuration classifies and costs. The no-scratchpad
/// baseline is the capacity-0 link; each scratchpad `(capacity,
/// assignment)` has its own.
pub(crate) struct Link {
    linked: LinkedProgram,
    trace: MemTrace,
    /// Scratchpad bytes the image occupies.
    spm_used: u32,
    /// Built on first use, so linking does not pay for it. A preparation
    /// error is kept and fails every point that needs it.
    prepared: OnceLock<Result<Prepared, WcetError>>,
}

impl Link {
    fn new(linked: LinkedProgram, trace: MemTrace) -> Link {
        let spm_used = linked
            .exe
            .bytes_in_region(spmlab_isa::mem::RegionKind::Scratchpad) as u32;
        Link {
            linked,
            trace,
            spm_used,
            prepared: OnceLock::new(),
        }
    }

    /// The prepared analysis of this link's program; its error, if
    /// preparation failed.
    fn prepared(&self) -> Result<&Prepared, CoreError> {
        let linked = &self.linked;
        self.prepared
            .get_or_init(|| prepare(&linked.exe, &linked.annotations))
            .as_ref()
            .map_err(|e| CoreError::Wcet(e.clone()))
    }
}

/// What one executor unit's representatives share, each result computed
/// by the first member that needs it and keyed by what it is computed
/// from: its link, by identity, and its machine with the latency removed.
/// A unit's members have one scratchpad capacity and one cache geometry
/// (see `plan::SweepPlan`), so a tally's key holds only what the
/// geometry leaves open, the main-memory timing with its latency zeroed.
#[derive(Default)]
pub(crate) struct Slots {
    tallies: Vec<(Arc<Link>, MainMemoryTiming, Tally)>,
    classified: Vec<(Arc<Link>, WcetConfig, Classified)>,
}

/// The result `slots` holds for `link` under `key`, computed on a miss.
fn shared<'a, K: PartialEq, V, E>(
    slots: &'a mut Vec<(Arc<Link>, K, V)>,
    link: &Arc<Link>,
    key: K,
    compute: impl FnOnce() -> Result<V, E>,
) -> Result<&'a V, E> {
    let found = slots
        .iter()
        .position(|(l, k, _)| Arc::ptr_eq(l, link) && *k == key);
    let i = match found {
        Some(i) => i,
        None => {
            slots.push((link.clone(), key, compute()?));
            slots.len() - 1
        }
    };
    Ok(&slots[i].2)
}

/// A compute-once memo, one cell per key: the first caller for a key
/// computes while later callers for it wait, then share its result. An
/// error or a panic is not cached — it fails its own caller, and the next
/// caller computes afresh. Each lookup bumps the memo's hit or miss
/// counter.
struct Memo<K, T> {
    cells: Mutex<Vec<(K, Cell<T>)>>,
    hit: &'static str,
    miss: &'static str,
}

/// One [`Memo`] key's result, `None` until computed.
type Cell<T> = Arc<Mutex<Option<T>>>;

impl<K: PartialEq, T: Clone> Memo<K, T> {
    fn new(hit: &'static str, miss: &'static str) -> Memo<K, T> {
        Memo {
            cells: Mutex::default(),
            hit,
            miss,
        }
    }

    fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let cell = {
            let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
            match cells.iter().find(|(k, _)| *k == key) {
                Some((_, cell)) => cell.clone(),
                None => {
                    let cell = Cell::default();
                    cells.push((key, cell.clone()));
                    cell
                }
            }
        };
        // A panicking computation poisons the cell with `None` inside.
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = slot.as_ref() {
            spmlab_obs::counter(self.hit, 1);
            return Ok(v.clone());
        }
        spmlab_obs::counter(self.miss, 1);
        let v = compute()?;
        *slot = Some(v.clone());
        Ok(v)
    }
}

/// Fails unless a simulation of `exe` ends with the host twin's checksum
/// `expected`, which every measurement therefore reports.
fn check(
    benchmark: &Benchmark,
    expected: i32,
    res: &SimResult,
    exe: &Executable,
) -> Result<(), CoreError> {
    let got = res
        .read_global(exe, "checksum")
        .unwrap_or(expected.wrapping_add(1));
    if got != expected {
        return Err(CoreError::ChecksumMismatch {
            benchmark: benchmark.name.to_string(),
            expected,
            got,
        });
    }
    Ok(())
}

/// A benchmark prepared for configuration sweeps: compiled once, linked
/// and profiled once on the baseline (exactly the paper's workflow — the
/// knapsack uses the same access counts for every capacity), and linked
/// once per scratchpad configuration.
pub struct Pipeline {
    benchmark: Benchmark,
    module: ObjModule,
    input: Vec<i32>,
    expected_checksum: i32,
    baseline_profile: Profile,
    /// The capacity-0 link every no-scratchpad point measures on.
    baseline: Arc<Link>,
    energy: EnergyModel,
    sim_options: SimOptions,
    /// WCET-driven allocations, keyed by capacity and the hierarchy-aware
    /// greedy's objective (`None`: the region-timing greedy).
    wcet_allocs: Memo<(u32, Option<WcetConfig>), SpmAssignment>,
    /// The bounds of every allocation trial the WCET-driven greedies have
    /// run, shared across capacities and objectives.
    alloc_trials: wcet_aware::TrialMemo,
    /// The IPET models of every function shape this pipeline's analyses
    /// have solved: every link's and every allocation trial's share one
    /// store.
    ipet_models: Arc<IpetModels>,
    /// Scratchpad links, keyed by capacity + assignment.
    spm_links: Memo<(u32, SpmAssignment), Arc<Link>>,
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
        let _prep = spmlab_obs::span_with("prepare", || benchmark.name.to_string());
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
        check(benchmark, expected_checksum, &res, &baseline.exe)?;
        let ipet_models = Arc::new(IpetModels::new());
        Ok(Pipeline {
            benchmark: benchmark.clone(),
            module,
            input,
            expected_checksum,
            baseline_profile: res.profile,
            // Every cache geometry of a sweep tallies this trace once:
            // worth a run index (scratchpad traces are tallied at most
            // twice and go without).
            baseline: Arc::new(Link::new(baseline, trace.with_run_index())),
            energy: EnergyModel::default(),
            sim_options,
            wcet_allocs: Memo::new("alloc_memo_hit", "alloc_memo_miss"),
            alloc_trials: wcet_aware::TrialMemo::with_ipet_models(ipet_models.clone()),
            ipet_models,
            spm_links: Memo::new("spm_link_memo_hit", "spm_link_memo_miss"),
        })
    }

    /// The baseline execution's recorded trace, serialized in its wire
    /// format (see `spmlab_sim::trace`). The bytes round-trip through
    /// [`MemTrace::from_bytes`] and replay on any hierarchy.
    pub fn trace_bytes(&self) -> Vec<u8> {
        self.baseline.trace.to_bytes()
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

    // -----------------------------------------------------------------
    // The unified entry point.
    // -----------------------------------------------------------------

    /// Runs one memory-architecture spec end to end: allocate (per the
    /// spec's scratchpad strategy) and link — the no-scratchpad baseline
    /// is the pipeline's capacity-0 link, every scratchpad link is made
    /// once per `(capacity, assignment)` — then simulate by pricing the
    /// link's recorded memory trace under the spec's hierarchy instead of
    /// re-interpreting, unless a recorded cycle-register value diverges
    /// under the spec's timing, and statically analyze the link's program
    /// (prepared once per link) with the analyzer configuration the spec
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
        let plan = SweepPlan::build(self, &[(0, &spec.canonical())]);
        let m = self.measure_spec(&plan.units[0][0], &mut Slots::default())?;
        Ok(self.package_spec(spec, &m))
    }

    /// The analyzer configuration for a canonical spec (see
    /// [`Pipeline::run`]'s routing table).
    pub(crate) fn wcet_config_for(&self, canon: &MemArchSpec) -> WcetConfig {
        let paper_mode = canon.spm.is_none()
            && canon.l2.is_none()
            && canon.main == MainMemoryTiming::table1()
            && !canon.hierarchy().write_policy_dependent();
        match &canon.l1 {
            L1::Unified(c) if canon.persistence => WcetConfig::with_cache_persistence(c.clone()),
            L1::Unified(c) if paper_mode => WcetConfig::with_cache(c.clone()),
            _ => WcetConfig::with_hierarchy(canon.hierarchy()),
        }
    }

    /// The expensive half of [`Pipeline::run`]: measures one planned
    /// representative on its link. Label-free and energy-free so sweep
    /// points whose canonical specs are effectively identical can share
    /// one measurement. `slots` are its unit's: a priceable machine
    /// prices from the latency-0 tally of its link, and a machine costs
    /// from the classification of its link and classification key; the
    /// first member that needs one computes it, the others with the same
    /// link and key reuse it.
    pub(crate) fn measure_spec(
        &self,
        rep: &Rep,
        slots: &mut Slots,
    ) -> Result<ArchMeasurement, CoreError> {
        let _s = spmlab_obs::span_with("measure-spec", || rep.machine.label());
        crate::faults::fault_point("measure-spec")?;
        let machine = &rep.machine;
        let wcfg = self.wcet_config_for(machine);
        let (link, spm_objects) = match &machine.spm {
            None => (self.baseline.clone(), Vec::new()),
            Some(spm) => {
                let assignment = {
                    let _s = spmlab_obs::span("alloc");
                    crate::faults::fault_point("alloc")?;
                    self.resolve_assignment(spm, &wcfg, &rep.twins)?
                };
                let objects = assignment.iter().map(str::to_string).collect();
                (self.spm_link(spm.size, &assignment)?, objects)
            }
        };
        let (sim_cycles, mem_stats) = self.simulated(&link, &machine.hierarchy(), slots)?;
        let exe = &link.linked.exe;
        let wcet = {
            let _s = spmlab_obs::span("analyze");
            crate::faults::fault_point("analyze")?;
            let prepared = link.prepared()?;
            let key = wcfg.classification_key();
            let classified = shared(&mut slots.classified, &link, key, || {
                Ok::<_, CoreError>(classify(prepared, exe, &wcfg))
            })?;
            cost(prepared, exe, &wcfg, classified, &self.ipet_models)?
        };
        Ok(ArchMeasurement {
            sim_cycles,
            wcet_cycles: wcet.wcet_cycles,
            mem_stats,
            classify: wcet.total_classify(),
            spm_used: link.spm_used,
            spm_objects,
            widened: wcet.widened,
        })
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
            checksum: self.expected_checksum,
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

    /// Prices `hierarchy` on `link` from its recorded trace, bumping the
    /// `sweep_replay` counter. A [priceable](MemTrace::priceable) machine
    /// prices from the link's latency-0 tally in `slots`, walking the
    /// trace only when no unit member has tallied it yet; any other
    /// replays. The replayed memory image equals the recorded one, so its
    /// validated checksum carries over. A replay that diverged on a
    /// recorded cycle-register value falls back to a full,
    /// checksum-checked simulation instead of failing the point. Real
    /// replay failures (watchdog expiry) propagate.
    fn simulated(
        &self,
        link: &Arc<Link>,
        hierarchy: &spmlab_isa::hierarchy::MemHierarchyConfig,
        slots: &mut Slots,
    ) -> Result<(u64, MemStats), CoreError> {
        let trace = &link.trace;
        let replayed = if trace.priceable(hierarchy) {
            let tallied = MainMemoryTiming {
                latency: 0,
                ..hierarchy.main
            };
            shared(&mut slots.tallies, link, tallied, || trace.tally(hierarchy))
                .and_then(|t| t.price(&hierarchy.main))
        } else {
            trace.replay(hierarchy)
        };
        match replayed {
            Ok(priced) => {
                spmlab_obs::counter("sweep_replay", 1);
                Ok(priced)
            }
            Err(SimError::ReplayDivergence { .. }) => {
                spmlab_obs::counter("sweep_full_sim", 1);
                let exe = &link.linked.exe;
                let machine = MachineConfig::with_hierarchy(hierarchy.clone());
                let sim = simulate(exe, &machine, &self.sweep_options())?;
                check(&self.benchmark, self.expected_checksum, &sim, exe)?;
                Ok((sim.cycles, sim.mem_stats))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Maps a scratchpad strategy to a concrete assignment. WCET-driven
    /// allocations are memoised per capacity + objective, and every greedy
    /// trials through the pipeline's one [`wcet_aware::TrialMemo`], so an
    /// assignment is linked and analysed once per objective however many
    /// capacities trial it. A `WcetAware` greedy also costs its trials for
    /// `twins`, the `WcetAware` objectives of its plan unit, so an
    /// assignment is classified once per classification key.
    fn resolve_assignment(
        &self,
        spm: &SpmSpec,
        wcfg: &WcetConfig,
        twins: &[WcetConfig],
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
                let key = (spm.size, Some(wcfg.clone()));
                self.wcet_allocs.get_or_compute(key, || {
                    self.counting_trials(|trials| {
                        trials.allocate_hierarchy_aware(
                            &self.module,
                            spm.size,
                            &AnnotationSet::new(),
                            wcfg,
                            twins,
                            Some(&region),
                        )
                    })
                })
            }
        }
    }

    /// The memoised region-timing greedy allocation for one capacity.
    fn region_alloc(&self, size: u32) -> Result<SpmAssignment, CoreError> {
        self.wcet_allocs.get_or_compute((size, None), || {
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

    /// The scratchpad link of `(size, assignment)`, linked and recorded
    /// once: every timing and hierarchy re-prices its trace.
    fn spm_link(&self, size: u32, assignment: &SpmAssignment) -> Result<Arc<Link>, CoreError> {
        self.spm_links
            .get_or_compute((size, assignment.clone()), || {
                let _s = spmlab_obs::span("spm-link");
                crate::faults::fault_point("link")?;
                let map = MemoryMap::with_spm(size);
                let linked =
                    self.benchmark
                        .link_with_input(&self.module, &map, assignment, &self.input)?;
                let (recorded, trace) = simulate_with_trace(&linked.exe, &self.sweep_options())?;
                check(
                    &self.benchmark,
                    self.expected_checksum,
                    &recorded,
                    &linked.exe,
                )?;
                Ok(Arc::new(Link::new(linked, trace)))
            })
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
                    let got = p.wcet_allocs.get_or_compute((1, None), || {
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
        let err = p
            .wcet_allocs
            .get_or_compute((2, None), || Err(CoreError::Injected("alloc".into())));
        assert!(err.is_err());
        assert_eq!(
            p.wcet_allocs
                .get_or_compute((2, None), || Ok(a.clone()))
                .unwrap(),
            a
        );
        // So does a panic, which poisons the cell's lock.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.wcet_allocs
                .get_or_compute((3, None), || panic!("greedy panicked"))
        }));
        assert!(panicked.is_err());
        assert_eq!(
            p.wcet_allocs
                .get_or_compute((3, None), || Ok(a.clone()))
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
