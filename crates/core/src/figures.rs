//! Data structures regenerating each table and figure of the paper's
//! evaluation section. A sweep figure is assembled from the per-point
//! results of its axis in [`crate::config`], however they were measured:
//! a direct sweep or a checkpoint stream.

use crate::pipeline::{ConfigResult, Pipeline};
use crate::sweep::SpecOutcome;
use crate::CoreError;
use spmlab_isa::archspec::MemArchSpec;
use spmlab_isa::hierarchy::MemHierarchyConfig;
use spmlab_isa::mem::{access_cycles, AccessWidth, RegionKind};
use spmlab_workloads::Benchmark;

/// A `(capacity, WCET / simulated cycles)` series, one entry per sweep
/// point.
pub type RatioSeries = Vec<(u32, f64)>;

/// Table 1: cycles per memory access (access + waitstates) by width and
/// region — regenerated from the timing model the whole workspace shares.
pub fn table1() -> Vec<(AccessWidth, u64, u64)> {
    AccessWidth::ALL
        .iter()
        .map(|&w| {
            (
                w,
                access_cycles(RegionKind::Main, w),
                access_cycles(RegionKind::Scratchpad, w),
            )
        })
        .collect()
}

/// One row of Table 2: benchmark inventory with measured sizes.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Description.
    pub description: String,
    /// Code bytes (functions + literal pools).
    pub code_bytes: u32,
    /// Data bytes (globals).
    pub data_bytes: u32,
    /// Number of memory objects (allocation candidates).
    pub objects: usize,
}

/// Table 2: the benchmark programs, with sizes measured from compilation.
///
/// # Errors
///
/// Propagates compiler failures.
pub fn table2(benchmarks: &[&Benchmark]) -> Result<Vec<Table2Row>, CoreError> {
    benchmarks
        .iter()
        .map(|b| {
            let module = b.compile()?;
            Ok(Table2Row {
                name: b.name.to_string(),
                description: b.description.to_string(),
                code_bytes: module.code_bytes(),
                data_bytes: module.data_bytes(),
                objects: module.memory_objects().len(),
            })
        })
        .collect()
}

/// Figure 3 (and Figure 6, which is the same plot for ADPCM): simulated
/// cycles and WCET bound for a benchmark across scratchpad sizes (panel a)
/// and cache sizes (panel b).
#[derive(Debug, Clone)]
pub struct Figure3 {
    /// Benchmark name.
    pub benchmark: String,
    /// Capacities swept, in bytes; both panels have one point per size.
    pub sizes: Vec<u32>,
    /// Panel (a): scratchpad sweep ([`crate::config::spm_axis`]).
    pub spm: Vec<ConfigResult>,
    /// Panel (b): unified direct-mapped cache sweep
    /// ([`crate::config::cache_axis`]).
    pub cache: Vec<ConfigResult>,
}

impl Figure3 {
    /// Assembles both panels from the results of
    /// [`crate::config::figure3_axis`] over `sizes`, in axis order.
    pub fn new(benchmark: &str, sizes: &[u32], mut results: Vec<ConfigResult>) -> Figure3 {
        let cache = results.split_off(sizes.len());
        Figure3 {
            benchmark: benchmark.to_string(),
            sizes: sizes.to_vec(),
            spm: results,
            cache,
        }
    }

    /// Figure 4/5 companion: WCET/sim ratio series for both branches,
    /// normalised the way Figure 4 plots them (simulated cycles ≡ 1).
    pub fn ratio_series(&self) -> (RatioSeries, RatioSeries) {
        let series = |panel: &[ConfigResult]| {
            self.sizes
                .iter()
                .zip(panel)
                .map(|(&size, r)| (size, r.ratio()))
                .collect()
        };
        (series(&self.spm), series(&self.cache))
    }
}

/// The §4 tightness experiment: simulation vs WCET on a *worst-case*
/// input, where the bound should be only a few percent above the
/// measurement.
#[derive(Debug, Clone)]
pub struct Tightness {
    /// Benchmark name.
    pub benchmark: String,
    /// Simulated cycles on the worst-case input.
    pub sim_cycles: u64,
    /// WCET bound.
    pub wcet_cycles: u64,
}

impl Tightness {
    /// Runs the experiment (benchmark must define a worst-case input).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoWorstInput`] when the benchmark defines no
    /// worst-case input (e.g. every generated benchmark), and pipeline
    /// failures otherwise.
    pub fn run(benchmark: &Benchmark, spm_size: u32) -> Result<Tightness, CoreError> {
        let worst = benchmark
            .worst_input()
            .ok_or_else(|| CoreError::NoWorstInput {
                benchmark: benchmark.name.to_string(),
            })?;
        let pipeline = Pipeline::with_input(benchmark, worst)?;
        let r = pipeline.run(&MemArchSpec::spm(spm_size))?;
        Ok(Tightness {
            benchmark: benchmark.name.to_string(),
            sim_cycles: r.sim_cycles,
            wcet_cycles: r.wcet_cycles,
        })
    }

    /// Overestimation of the bound relative to the measurement, in percent.
    pub fn overestimate_pct(&self) -> f64 {
        (self.wcet_cycles as f64 / self.sim_cycles.max(1) as f64 - 1.0) * 100.0
    }
}

/// The hierarchy figure this reproduction adds beyond the paper: simulated
/// cycles and static WCET bound for one benchmark across memory
/// hierarchies — scratchpad points (over both main-memory timings) next to
/// L1-only, split-L1 and L1+L2 machines
/// ([`crate::config::hierarchy_figure_axis`]). The predictability story of
/// the paper extends level by level: the SPM bound stays tight while every
/// cache level added widens the gap.
#[derive(Debug, Clone)]
pub struct FigureHierarchy {
    /// Benchmark name.
    pub benchmark: String,
    /// Every point in axis order: the scratchpad references, then the
    /// cache hierarchies. Failed points stay in the figure and its
    /// report, never silently dropped.
    pub points: Vec<SpecOutcome>,
}

impl FigureHierarchy {
    /// Assembles the figure from the per-point outcomes of its axis.
    pub fn new(benchmark: &str, outcomes: &[SpecOutcome]) -> FigureHierarchy {
        FigureHierarchy {
            benchmark: benchmark.to_string(),
            points: outcomes.to_vec(),
        }
    }

    /// The soundness invariant over every point of the figure; a failed
    /// point fails it too, since its bound was never checked.
    pub fn all_sound(&self) -> bool {
        self.points.iter().all(|p| {
            p.outcome
                .result()
                .is_some_and(|r| r.wcet_cycles >= r.sim_cycles)
        })
    }
}

/// One point of the SPM×hierarchy figure: the same scratchpad capacity
/// under the same multi-level machine, filled by the two WCET-driven
/// allocation objectives.
#[derive(Debug, Clone)]
pub struct AllocComparePoint {
    /// Scratchpad capacity in bytes.
    pub spm_size: u32,
    /// The multi-level machine both allocations run under.
    pub machine: MemHierarchyConfig,
    /// Allocation optimised against flat region timing (the seed
    /// allocator's objective), measured under the machine.
    pub region: ConfigResult,
    /// Allocation optimised against the machine's multi-level critical
    /// path ([`spmlab_isa::archspec::SpmAllocation::WcetAware`]).
    pub aware: ConfigResult,
}

/// The figure the composable spec unlocks: scratchpad and multi-level
/// hierarchy in *one* machine, with object placement optimised against
/// the multi-level critical path. For every `(capacity, machine)` point
/// it compares the hierarchy-aware allocation with the seed allocator's
/// region-timing allocation — the first result this repository can
/// produce that the seed could not.
#[derive(Debug, Clone)]
pub struct FigureSpmHierarchy {
    /// Benchmark name.
    pub benchmark: String,
    /// One comparison per `(capacity, machine)` pair.
    pub points: Vec<AllocComparePoint>,
}

impl FigureSpmHierarchy {
    /// Assembles the figure from the per-point outcomes of
    /// [`crate::config::hierarchy_spm_axis`], whose `[region, aware]`
    /// pairs are adjacent.
    ///
    /// # Errors
    ///
    /// [`CoreError::Point`] for the first failed point: every comparison
    /// needs both of its allocations.
    pub fn new(benchmark: &str, outcomes: &[SpecOutcome]) -> Result<FigureSpmHierarchy, CoreError> {
        let points = outcomes
            .chunks(2)
            .map(|pair| {
                Ok(AllocComparePoint {
                    spm_size: pair[0].spec.spm_size(),
                    machine: pair[0].spec.hierarchy(),
                    region: pair[0].outcome.measured()?.clone(),
                    aware: pair[1].outcome.measured()?.clone(),
                })
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(FigureSpmHierarchy {
            benchmark: benchmark.to_string(),
            points,
        })
    }

    /// The headline claim: the hierarchy-aware allocation's WCET bound is
    /// never above the region-timing allocation's at any point.
    pub fn aware_never_worse(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.aware.wcet_cycles <= p.region.wcet_cycles)
    }

    /// WCET ≥ simulation at every point, for both allocations.
    pub fn all_sound(&self) -> bool {
        self.points.iter().all(|p| {
            p.aware.wcet_cycles >= p.aware.sim_cycles && p.region.wcet_cycles >= p.region.sim_cycles
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_workloads::{paper_benchmarks, INSERTSORT};

    #[test]
    fn tightness_without_worst_input_is_a_typed_error() {
        // Generated benchmarks never define a worst-case input; asking
        // for the tightness experiment must yield the typed error, not a
        // panic.
        let g =
            spmlab_workloads::gen::generate_for_seed(0, &spmlab_workloads::gen::reference_arch());
        let b = g.benchmark();
        match Tightness::run(&b, 0) {
            Err(CoreError::NoWorstInput { benchmark }) => {
                assert_eq!(benchmark, b.name.as_ref());
            }
            Err(e) => panic!("expected NoWorstInput, got: {e}"),
            Ok(_) => panic!("expected NoWorstInput, got a result"),
        }
    }

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        // byte/half/word main-memory cycles 2/2/4, scratchpad always 1.
        assert_eq!(t[0].1, 2);
        assert_eq!(t[1].1, 2);
        assert_eq!(t[2].1, 4);
        assert!(t.iter().all(|r| r.2 == 1));
    }

    #[test]
    fn table2_lists_paper_benchmarks() {
        let rows = table2(&paper_benchmarks()).unwrap();
        assert_eq!(rows.len(), 3);
        let g721 = rows.iter().find(|r| r.name == "g721").unwrap();
        assert!(g721.code_bytes > 1000, "G.721 is the biggest benchmark");
        assert!(g721.objects > 10);
    }

    #[test]
    fn hierarchy_figure_is_sound_and_labelled() {
        use crate::config::DRAM_LATENCY;
        use crate::sweep::{spec_sweep_with_session, SweepSession};
        use spmlab_isa::cachecfg::CacheConfig;
        use spmlab_isa::hierarchy::MainMemoryTiming;
        let axis = vec![
            MemArchSpec::spm(512),
            MemArchSpec {
                main: MainMemoryTiming::dram(DRAM_LATENCY),
                ..MemArchSpec::spm(512)
            },
            MemArchSpec::from_hierarchy(&MemHierarchyConfig::l1_only(CacheConfig::unified(512))),
            MemArchSpec::from_hierarchy(
                &MemHierarchyConfig::split_l1(256, 256).with_l2(CacheConfig::l2(2048)),
            ),
        ];
        let pipeline = Pipeline::new(&INSERTSORT).unwrap();
        let outcomes = spec_sweep_with_session(&pipeline, &axis, &SweepSession::none()).unwrap();
        let fig = FigureHierarchy::new("insertsort", &outcomes);
        assert!(fig.all_sound());
        let rows: Vec<&ConfigResult> = fig
            .points
            .iter()
            .filter_map(|p| p.outcome.result())
            .collect();
        assert_eq!(rows.len(), 4, "2 spm points + 2 hierarchies");
        assert!(rows[0].label.starts_with("spm"));
        assert!(rows.iter().any(|r| r.label.contains("l2 2048")));
        // The SPM bound is far tighter than any cached configuration's.
        let (spm_ratio, l1_ratio) = (rows[0].ratio(), rows[2].ratio());
        assert!(
            spm_ratio < l1_ratio,
            "spm {spm_ratio:.2} vs l1 {l1_ratio:.2}"
        );
    }

    #[test]
    fn spm_hierarchy_figure_compares_allocators() {
        use crate::sweep::{spec_sweep_with_session, SweepSession};
        use spmlab_isa::cachecfg::CacheConfig;
        let machines = vec![MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024))];
        let axis = crate::config::hierarchy_spm_axis(&[256], &machines);
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let outcomes = spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap();
        let fig = FigureSpmHierarchy::new("insertsort", &outcomes).unwrap();
        assert_eq!(fig.points.len(), 1);
        assert!(fig.all_sound());
        assert!(
            fig.aware_never_worse(),
            "aware {} vs region {}",
            fig.points[0].aware.wcet_cycles,
            fig.points[0].region.wcet_cycles
        );
        assert_eq!(fig.points[0].spm_size, 256);
    }

    #[test]
    fn tightness_on_insertsort() {
        let t = Tightness::run(&INSERTSORT, 0).unwrap();
        assert!(t.wcet_cycles >= t.sim_cycles);
        assert!(
            t.overestimate_pct() < 40.0,
            "worst-case input should be close to the bound: {:.1}%",
            t.overestimate_pct()
        );
    }
}
