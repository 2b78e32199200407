//! The sharing plan of one sweep: [`SweepPlan::build`] decides, before
//! anything is measured, which points share a measurement and which
//! representatives one worker measures in turn.
//!
//! - Points share a measurement, their representative's, by equality
//!   only: their [`measured_machine`]s are equal. Two rules make machines
//!   equal. The canonical form keys equal-after-validation specs alike
//!   (zero-size levels are disabled ones), and an idle store buffer is
//!   dropped.
//! - Representatives that [`share_a_unit`] (one scratchpad capacity, one
//!   first level) form one executor unit, whatever their allocation,
//!   L2 and timing: their links are one capacity's, so a unit is where
//!   two representatives can land on one link, and their L2s see what
//!   one walk of their L1 lets through. The unit's members share what
//!   that link computes (see [`Pipeline::measure_spec`]): one pricing
//!   memo of its trace ([`spmlab_sim::Tallies`]), which decides what
//!   the machines priced through it share — the first-level walk, and
//!   one tally per geometry for every main-memory latency — and a cache
//!   classification per key, which reads no main-memory timing
//!   ([`WcetConfig::classification_key`](spmlab_wcet::WcetConfig::classification_key)).
//!   Shared results live only as long as their unit.
//! - Each `WcetAware` representative with a cache level names its unit's
//!   `WcetAware` objectives as its
//!   [twins](spmlab_alloc::wcet_aware::TrialMemo), so a trial classified
//!   for one is costed for all of them, and twins never race on two
//!   workers.
//!
//! Points less representatives is the traced `sweep_memo_hit` counter.

use crate::pipeline::Pipeline;
use spmlab_isa::archspec::{MemArchSpec, SpmAllocation};
use spmlab_wcet::WcetConfig;

/// One measured machine and the sweep points that share its measurement.
pub(crate) struct Rep {
    /// The [`measured_machine`] of the representative's canonical spec.
    pub machine: MemArchSpec,
    /// Axis indices of the points sharing the measurement, the
    /// representative first.
    pub points: Vec<usize>,
    /// The classification key of its routed analyzer configuration
    /// ([`WcetConfig::classification_key`]): its unit shares a link's
    /// classification under it.
    pub classification: WcetConfig,
    /// The routed objectives of its unit's `WcetAware` representatives
    /// with a cache level, its own included, when it is one of them;
    /// empty otherwise.
    pub twins: Vec<WcetConfig>,
}

/// What a sweep measures and shares: its executor units, each the
/// representatives one worker measures in turn, in first-seen order.
pub(crate) struct SweepPlan {
    pub units: Vec<Vec<Rep>>,
}

impl SweepPlan {
    /// Plans the measurement of `points`, each an axis index and its
    /// canonical spec, on `pipeline`.
    pub(crate) fn build(pipeline: &Pipeline, points: &[(usize, &MemArchSpec)]) -> SweepPlan {
        let mut units: Vec<Vec<Rep>> = Vec::new();
        for &(i, canon) in points {
            let machine = measured_machine(canon);
            let u = match units
                .iter()
                .position(|u| share_a_unit(&u[0].machine, &machine))
            {
                Some(u) => u,
                None => {
                    units.push(Vec::new());
                    units.len() - 1
                }
            };
            // Members of a unit share a measurement when their machines
            // are equal.
            let unit = &mut units[u];
            match unit.iter_mut().find(|r| r.machine == machine) {
                Some(rep) => rep.points.push(i),
                None => unit.push(Rep {
                    classification: pipeline.wcet_config_for(&machine).classification_key(),
                    machine,
                    points: vec![i],
                    twins: Vec::new(),
                }),
            }
        }
        let aware = |r: &Rep| {
            r.machine.has_cache_levels()
                && r.machine
                    .spm
                    .as_ref()
                    .is_some_and(|s| s.alloc == SpmAllocation::WcetAware)
        };
        for unit in &mut units {
            let objectives: Vec<WcetConfig> = unit
                .iter()
                .filter(|r| aware(r))
                .map(|r| pipeline.wcet_config_for(&r.machine))
                .collect();
            for rep in unit.iter_mut().filter(|r| aware(r)) {
                rep.twins.clone_from(&objectives);
            }
        }
        SweepPlan { units }
    }
}

/// The machine a canonical spec measures: `canon` with its store buffer
/// dropped when no store can reach it
/// ([`MemHierarchyConfig::buffers_stores`](spmlab_isa::hierarchy::MemHierarchyConfig::buffers_stores)).
/// Behind an absorbing write-back level the buffer is idle, so the
/// buffered point's simulation and analysis are those of its unbuffered
/// twin; measuring the twin lets it price from the twin's tally and
/// share the twin's measurement.
fn measured_machine(canon: &MemArchSpec) -> MemArchSpec {
    let mut m = canon.clone();
    if !canon.hierarchy().buffers_stores() {
        m.main.store_buffer = None;
    }
    m
}

/// Whether two measured machines belong to one executor unit: one
/// scratchpad capacity, and an equal first level (the L1 with its write
/// policy) and persistence analysis, whatever L2 sits behind it. The L1
/// never looks at the levels below it — the caches are not inclusive and
/// nothing invalidates an L1 line from below — so the L2 of each member
/// sees exactly what one walk of the L1 lets through: its misses, its
/// dirty victims and the stores an L2 absorbs.
fn share_a_unit(a: &MemArchSpec, b: &MemArchSpec) -> bool {
    a.spm.as_ref().map(|s| s.size) == b.spm.as_ref().map(|s| s.size)
        && a.l1 == b.l1
        && a.persistence == b.persistence
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{GridSpec, L1Shape};
    use crate::sweep::{spec_sweep_with_session, SweepSession};
    use spmlab_isa::cachecfg::CacheConfig;
    use spmlab_isa::cachecfg::WritePolicy;
    use spmlab_isa::hierarchy::StoreBuffer;
    use spmlab_isa::hierarchy::L1;
    use spmlab_obs::{Sink, SpanMeta};
    use spmlab_sim::MemTrace;
    use spmlab_workloads::{inputs, G721, INSERTSORT};
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    /// Plans every point of `axis`, as a sweep without resumed points
    /// does: its points, representatives and units.
    fn plan_counts(p: &Pipeline, axis: &[MemArchSpec]) -> [usize; 3] {
        let canons: Vec<MemArchSpec> = axis.iter().map(MemArchSpec::canonical).collect();
        let points: Vec<(usize, &MemArchSpec)> = canons.iter().enumerate().collect();
        let plan = SweepPlan::build(p, &points);
        let reps = plan.units.iter().map(Vec::len).sum();
        [axis.len(), reps, plan.units.len()]
    }

    /// Totals this thread's counters and span opens by name. A sweep runs
    /// serially on its caller while a sink is installed, and the events of
    /// tests running beside it come from their own threads.
    struct ThreadTotals {
        thread: ThreadId,
        totals: Mutex<BTreeMap<&'static str, u64>>,
    }

    impl ThreadTotals {
        /// A sink totalling the calling thread's events.
        fn new() -> Arc<ThreadTotals> {
            Arc::new(ThreadTotals {
                thread: std::thread::current().id(),
                totals: Mutex::default(),
            })
        }

        fn add(&self, name: &'static str, delta: u64) {
            if std::thread::current().id() == self.thread {
                *self.totals.lock().unwrap().entry(name).or_insert(0) += delta;
            }
        }

        fn total(&self, name: &str) -> usize {
            self.totals.lock().unwrap().get(name).copied().unwrap_or(0) as usize
        }
    }

    impl Sink for ThreadTotals {
        fn span_open(&self, span: &SpanMeta) {
            self.add(span.name, 1);
        }
        fn span_close(&self, _: &SpanMeta, _: u64) {}
        fn counter(&self, name: &'static str, delta: u64, _: u64, _: u64) {
            self.add(name, delta);
        }
        fn progress(&self, _: u64, _: u64, _: &str, _: u64, _: u64) {}
    }

    /// Sweeps `axis` on `p` with a [`ThreadTotals`] sink installed; with
    /// `check`, every point must equal `Pipeline::run`.
    fn traced_sweep(p: &Pipeline, axis: &[MemArchSpec], check: bool) -> Arc<ThreadTotals> {
        let sink = ThreadTotals::new();
        let guard = spmlab_obs::add_sink(sink.clone());
        let outcomes = spec_sweep_with_session(p, axis, &SweepSession::none()).unwrap();
        drop(guard);
        for o in &outcomes {
            let r = o.outcome.result().expect("every point measures");
            if check {
                let direct = p.run(&o.spec).unwrap();
                assert_eq!(
                    (r.sim_cycles, r.wcet_cycles, &r.spm_objects),
                    (direct.sim_cycles, direct.wcet_cycles, &direct.spm_objects),
                    "{}",
                    r.label
                );
            }
        }
        assert_eq!(sink.total("sweep_points"), axis.len());
        sink
    }

    /// The walks of the baseline trace a traced no-scratchpad sweep made,
    /// counted in events (an uncached tally walks nothing), and its
    /// classifications.
    fn walks_and_classifications(p: &Pipeline, sink: &ThreadTotals) -> [usize; 2] {
        let walked = sink.total("replay_events") + sink.total("replay_elided");
        let events = MemTrace::from_bytes(&p.trace_bytes()).unwrap().events();
        assert_eq!(walked % events, 0, "whole walks only");
        [walked / events, sink.total("wcet-pass-fixpoints")]
    }

    /// The three perfbench grid shapes on G.721 (reduced input). `dse-wt`
    /// measures all 63 points in one unit per L1 geometry, 7 in all: its 6
    /// cached L1 geometries walk the trace once each, whatever L2 sits
    /// behind them, and its 2 L2-only machines walk it once each; the
    /// uncached one walks nothing. Its 20 cached geometries classify once
    /// each, plus once more for the three latency-0 unified L1s that take
    /// paper mode. `dse-wb` measures only the 54 unbuffered points (its
    /// store buffers are idle) in one unit and one walk per L1 geometry,
    /// and classifies once per cache geometry. `spm-alloc` is all
    /// scratchpad: one unit per capacity and L1 size. What an L1 lets
    /// through to an L2 is counted apart (`replay_l2_events`), so the
    /// walks stay whole. Planning compares machines only, so it prepares
    /// no program.
    #[test]
    fn plan_counts_pinned_on_the_perfbench_grid_shapes() {
        let _x = spmlab_obs::exclusive();
        let p = Pipeline::with_input(&G721, inputs::speech_like(48, 0xC0FFEE)).unwrap();
        let base = GridSpec {
            l1_shapes: vec![L1Shape::Unified, L1Shape::Split],
            l2_sizes: vec![0, 4096, 16384],
            main_latencies: vec![0, 10, 40],
            ..GridSpec::default()
        };
        let dse_wt = GridSpec {
            l1_sizes: vec![0, 256, 1024, 4096],
            ..base.clone()
        }
        .axis()
        .unwrap()
        .0;
        let dse_wb = GridSpec {
            l1_sizes: vec![256, 1024, 4096],
            l1_policies: vec![WritePolicy::WriteBack],
            l2_policies: vec![WritePolicy::WriteBack],
            store_buffers: vec![None, Some(StoreBuffer::new(4, 8))],
            ..base
        }
        .axis()
        .unwrap()
        .0;
        let spm_alloc = GridSpec {
            spm_sizes: vec![128, 256, 512, 1024, 2048],
            spm_allocs: vec![
                SpmAllocation::ProfileKnapsack,
                SpmAllocation::WcetRegion,
                SpmAllocation::WcetAware,
            ],
            l1_shapes: vec![L1Shape::Unified],
            l1_sizes: vec![0, 1024],
            l2_sizes: vec![0],
            main_latencies: vec![0, 10],
            ..GridSpec::default()
        }
        .axis()
        .unwrap()
        .0;
        let sink = ThreadTotals::new();
        let guard = spmlab_obs::add_sink(sink.clone());
        let counts = [&dse_wt, &dse_wb, &spm_alloc].map(|axis| plan_counts(&p, axis));
        drop(guard);
        assert_eq!(
            sink.total("wcet-pass-prepare"),
            0,
            "planning prepares nothing"
        );
        assert_eq!(counts, [[63, 63, 7], [108, 54, 6], [55, 55, 10]]);
        let traced =
            |axis: &[MemArchSpec]| walks_and_classifications(&p, &traced_sweep(&p, axis, false));
        assert_eq!([traced(&dse_wt), traced(&dse_wb)], [[8, 23], [6, 18]]);
    }

    /// On a no-scratchpad insertsort grid with write policy, latency and
    /// store-buffer axes, the plan's points and representatives equal the
    /// traced `sweep_points` and misses: 6 idle-buffered points share
    /// their twin's measurement, the 12 buffered write-through and
    /// uncached points walk the trace on their own beside 3 first walks
    /// of cached machines (the L2 alone, and each L1 once for both L2
    /// sizes), and 6 classifications serve 24 cached representatives.
    /// Each classification walks its census once, and so does the one
    /// shared by the 6 uncached representatives, which has no fixpoints
    /// to run: 7 censuses. On a cached knapsack and `wcet-region`
    /// scratchpad grid, whose region-timing greedy trials run no
    /// fixpoints, the 16 points form one unit per capacity, and points on
    /// one link share its tally and classification: at 512 bytes both
    /// allocators choose one link, so 3 links make 6 tallies (`replay`
    /// spans) and 6 classifications, beside one census per trial.
    #[test]
    fn plan_counts_equal_the_traced_counters() {
        let grid = GridSpec {
            l1_sizes: vec![0, 256],
            l1_policies: vec![WritePolicy::WriteThrough, WritePolicy::WriteBack],
            l2_sizes: vec![0, 4096],
            main_latencies: vec![0, 10, 40],
            store_buffers: vec![None, Some(StoreBuffer::new(4, 8))],
            ..GridSpec::default()
        };
        let axis = grid.axis().unwrap().0;
        let _x = spmlab_obs::exclusive();
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let [points, reps, units] = plan_counts(&p, &axis);
        assert_eq!([points, reps, units], [36, 30, 3]);
        let sink = traced_sweep(&p, &axis, false);
        assert_eq!(reps, points - sink.total("sweep_memo_hit"));
        assert_eq!(walks_and_classifications(&p, &sink), [15, 6]);
        assert_eq!(sink.total("wcet-pass-census"), 7);

        let spm_grid = GridSpec {
            spm_sizes: vec![128, 512],
            spm_allocs: vec![SpmAllocation::ProfileKnapsack, SpmAllocation::WcetRegion],
            l1_sizes: vec![256],
            l2_sizes: vec![0, 4096],
            main_latencies: vec![0, 10],
            ..GridSpec::default()
        };
        let axis = spm_grid.axis().unwrap().0;
        assert_eq!(plan_counts(&p, &axis), [16, 16, 2]);
        let sink = traced_sweep(&p, &axis, true);
        assert_eq!(sink.total("sweep_memo_hit"), 0);
        assert_eq!(sink.total("replay"), 6);
        assert_eq!(sink.total("wcet-pass-fixpoints"), 6);
        // One census per classification: the 6 of the points, and one per
        // region-timing greedy trial, 13 in all (debug builds re-check
        // each memo hit, classifying it afresh).
        let trials = sink.total("alloc_trial_memo_miss");
        let rechecks = if cfg!(debug_assertions) {
            sink.total("alloc_trial_memo_hit")
        } else {
            0
        };
        assert_eq!(trials, 13);
        assert_eq!(sink.total("wcet-pass-census"), 6 + trials + rechecks);
    }

    /// One unit covers a write-through L1 over two L2 sizes of both write
    /// policies at two latencies: every point equals `Pipeline::run`, so
    /// no two L2s share a tally. The L1 is walked twice, once leaving the
    /// stores to the counters for the write-through L2s and once sending
    /// them in program order to the write-back L2s that absorb them;
    /// each of the four L2s is fed what its walk let through, and each
    /// cache geometry classifies once.
    #[test]
    fn one_unit_tallies_each_l2_behind_one_l1_walk() {
        let grid = GridSpec {
            l1_sizes: vec![256],
            l2_sizes: vec![2048, 4096],
            l2_policies: vec![WritePolicy::WriteThrough, WritePolicy::WriteBack],
            main_latencies: vec![0, 10],
            ..GridSpec::default()
        };
        let axis = grid.axis().unwrap().0;
        let _x = spmlab_obs::exclusive();
        let p = Pipeline::new(&INSERTSORT).unwrap();
        assert_eq!(plan_counts(&p, &axis), [8, 8, 1]);
        let sink = traced_sweep(&p, &axis, true);
        assert_eq!(sink.total("replay"), 4, "one tally per L2");
        assert!(sink.total("replay_l2_events") > 0);
        assert_eq!(walks_and_classifications(&p, &sink), [2, 4]);
    }

    /// A `WcetAware` point whose greedy lands on the link of a knapsack
    /// or `wcet-region` point of its unit prices from that link's tally
    /// and costs from its classification. Insertsort's 128-byte greedies
    /// land on the knapsack's link, beside the region greedy's own: with
    /// the greedies already memoised, the sweep walks and classifies once
    /// per link, and every point equals `Pipeline::run`.
    #[test]
    fn wcet_aware_points_share_the_link_they_land_on() {
        let _x = spmlab_obs::exclusive();
        let p = Pipeline::new(&INSERTSORT).unwrap();
        let grid = GridSpec {
            spm_sizes: vec![128],
            spm_allocs: vec![
                SpmAllocation::ProfileKnapsack,
                SpmAllocation::WcetRegion,
                SpmAllocation::WcetAware,
            ],
            l1_sizes: vec![256],
            main_latencies: vec![0, 10],
            ..GridSpec::default()
        };
        let axis = grid.axis().unwrap().0;
        let mut links = BTreeMap::new();
        for spec in &axis {
            let aware = spec.spm.as_ref().unwrap().alloc == SpmAllocation::WcetAware;
            let objects = p.run(spec).unwrap().spm_objects;
            *links.entry(objects).or_insert(0) += usize::from(!aware);
        }
        assert_eq!(links.len(), 2);
        assert!(
            links.values().all(|&n| n > 0),
            "no link of its own: {links:?}"
        );
        assert_eq!(plan_counts(&p, &axis), [6, 6, 1]);
        let sink = traced_sweep(&p, &axis, true);
        assert_eq!(sink.total("alloc_trial_memo_miss"), 0, "greedies memoised");
        assert_eq!(sink.total("replay"), 2);
        assert_eq!(sink.total("wcet-pass-fixpoints"), 2);
    }

    /// The canonical form is the memo key: a spec with zero-size
    /// (disabled) levels shares the measurement of the plainly written
    /// machine.
    #[test]
    fn equal_after_validation_specs_share_a_key() {
        use spmlab_isa::archspec::SpmSpec;
        let zero = CacheConfig {
            size: 0,
            ..CacheConfig::unified(64)
        };
        let noisy = MemArchSpec {
            spm: Some(SpmSpec {
                size: 0,
                alloc: SpmAllocation::ProfileKnapsack,
            }),
            l1: L1::Split {
                i: Some(zero.clone()),
                d: None,
            },
            l2: Some(zero),
            main: spmlab_isa::hierarchy::MainMemoryTiming::table1(),
            persistence: false,
        };
        let p = Pipeline::new(&INSERTSORT).unwrap();
        assert_eq!(
            plan_counts(&p, &[noisy, MemArchSpec::uncached()]),
            [2, 1, 1]
        );
    }
}
