//! The sharing plan of one sweep: [`SweepPlan::build`] decides, before
//! anything is measured, which points share a measurement and which
//! representatives one worker measures in turn.
//!
//! - Points whose [`measured_machine`]s have equal scratchpad specs, equal
//!   main-memory timing and equal [`geometry_key`] share one measurement,
//!   their representative's.
//! - Representatives with equal scratchpad capacity and equal
//!   [`geometry_key`] form one executor unit, whatever their allocation
//!   and timing: their links are one capacity's, so a unit is where two
//!   representatives can land on one link. The unit's members share what
//!   that link computes, keyed by what it is computed from (see
//!   [`Pipeline::measure_spec`]): a latency-0 trace tally, and a cache
//!   classification, which reads no latency
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
use spmlab_isa::cachecfg::{CacheConfig, Replacement};
use spmlab_isa::hierarchy::L1;
use spmlab_wcet::WcetConfig;
use std::collections::{BTreeMap, BTreeSet};

/// One measured machine and the sweep points that share its measurement.
pub(crate) struct Rep {
    /// The [`measured_machine`] of the representative's canonical spec.
    pub machine: MemArchSpec,
    /// Axis indices of the points sharing the measurement, the
    /// representative first.
    pub points: Vec<usize>,
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
        // The footprint only decides which no-scratchpad points share: it
        // takes two to share.
        let no_spm = points.iter().filter(|(_, c)| c.spm.is_none()).count();
        let fp = (no_spm > 1).then(|| sweep_footprint(pipeline)).flatten();
        let mut unit_of_key: BTreeMap<String, usize> = BTreeMap::new();
        let mut units: Vec<Vec<Rep>> = Vec::new();
        for &(i, canon) in points {
            let machine = measured_machine(canon);
            let geometry = geometry_key(&machine, fp.as_ref());
            let capacity = machine.spm.as_ref().map(|s| s.size);
            let key = format!("{capacity:?}|{geometry}");
            let u = *unit_of_key.entry(key).or_insert(units.len());
            if u == units.len() {
                units.push(Vec::new());
            }
            // A unit fixes capacity and geometry: its members share a
            // measurement when allocation and timing are equal too.
            let unit = &mut units[u];
            let same =
                |r: &&mut Rep| r.machine.spm == machine.spm && r.machine.main == machine.main;
            match unit.iter_mut().find(same) {
                Some(rep) => rep.points.push(i),
                None => unit.push(Rep {
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
/// twin; measuring the twin lets it price from a shared latency-0 tally
/// and share the twin's measurement.
fn measured_machine(canon: &MemArchSpec) -> MemArchSpec {
    let mut m = canon.clone();
    if !canon.hierarchy().buffers_stores() {
        m.main.store_buffer = None;
    }
    m
}

/// The address intervals one no-scratchpad execution (and its WCET
/// analysis) can touch in main memory, plus the annotated array ranges
/// the abstract domain weakens. Drives the effective-configuration memo.
#[derive(Debug, Clone)]
struct Footprint {
    intervals: Vec<(u32, u32)>,
    ranges: Vec<(u32, u32)>,
    /// Every *store* target is constrained and inside the enumerated
    /// intervals too. Write-policy-dependent machines (write-allocate
    /// installs make store addresses tag-store-relevant) may only
    /// footprint-collapse when this holds; all-write-through machines
    /// don't care (their stores never touch a tag store).
    writes_covered: bool,
}

/// Computes the sweep footprint for `pipeline`'s no-scratchpad link:
/// the loaded image, every annotated access range, and the analyzer's
/// verified stack window. `None` (no memoisation) when the stack bound is
/// unavailable or any read's address cannot be constrained at all — an
/// `Unknown` access may concretely touch any main-memory line, escaping
/// every interval the footprint could enumerate.
fn sweep_footprint(pipeline: &Pipeline) -> Option<Footprint> {
    let baseline = pipeline.baseline();
    let linked = &baseline.linked;
    // Unannotated loads default to `AddrInfo::Unknown`; walking the real
    // instruction stream (not just the annotation set, which omits them)
    // is the only way to see these. An unconstrained *store* merely
    // clears `writes_covered`: write-through machines collapse anyway
    // (their stores never touch a tag store and cost only the access
    // width), while write-policy-dependent machines — where
    // write-allocate makes store addresses load-bearing — collapse only
    // with full write coverage (see `geometry_key`).
    let prepared = baseline.prepared().ok()?;
    let mut writes_covered = true;
    for cfg in prepared.cfgs().values() {
        for block in cfg.blocks.values() {
            for (addr, insn) in &block.insns {
                for acc in spmlab_wcet::addrinfo::data_accesses(insn, *addr, &linked.annotations) {
                    if matches!(acc.info, spmlab_isa::annot::AddrInfo::Unknown) {
                        if acc.is_write {
                            writes_covered = false;
                        } else {
                            return None;
                        }
                    }
                }
            }
        }
    }
    let map = &linked.exe.memory_map;
    let main_lo = map.main_base;
    let main_hi = map.main_base.saturating_add(map.main_size);
    let clip = |lo: u32, hi: u32| -> Option<(u32, u32)> {
        let lo = lo.max(main_lo);
        let hi = hi.min(main_hi);
        (hi > lo).then_some((lo, hi))
    };
    // The stack window needs a *verified* depth bound: preparation fails
    // without one, and then the memo stays off.
    let stack_bytes = prepared.stack_bytes();
    let mut intervals = Vec::new();
    let mut ranges = Vec::new();
    for r in &linked.exe.regions {
        if let Some(iv) = clip(r.addr, r.addr.saturating_add(r.bytes.len() as u32)) {
            intervals.push(iv);
        }
    }
    for acc in linked.annotations.accesses() {
        match acc.addr {
            spmlab_isa::annot::AddrInfo::Exact(a) => {
                if let Some(iv) = clip(a, a.saturating_add(4)) {
                    intervals.push(iv);
                }
            }
            spmlab_isa::annot::AddrInfo::Range { lo, hi } => {
                if let Some(iv) = clip(lo, hi) {
                    intervals.push(iv);
                    ranges.push(iv);
                }
            }
            // Stack accesses are covered by the verified stack window
            // added below; Unknown reads disabled the memo above.
            _ => {}
        }
    }
    if let Some(iv) = clip(map.stack_top.saturating_sub(stack_bytes), map.stack_top) {
        intervals.push(iv);
    }
    Some(Footprint {
        intervals,
        ranges,
        writes_covered,
    })
}

/// Whether `cfg` is *conflict-free* over the footprint: every reachable
/// line maps to its own set (so no eviction can ever occur, concretely or
/// abstractly), and no annotated range reaches the analyzer's
/// weaken-every-set threshold. Under these conditions the level's
/// behaviour is fully determined by line size, associativity, latency and
/// scope — capacity beyond the footprint and the replacement policy's
/// victim choice are irrelevant.
fn conflict_free(cfg: &CacheConfig, fp: &Footprint) -> bool {
    let sets = cfg.num_sets() as u64;
    let line = cfg.line.max(1);
    for &(lo, hi) in &fp.ranges {
        let k = ((hi - 1) / line) as u64 - (lo / line) as u64 + 1;
        if k >= sets {
            return false;
        }
    }
    let mut lines: BTreeSet<u32> = BTreeSet::new();
    for &(lo, hi) in &fp.intervals {
        for l in (lo / line)..=((hi - 1) / line) {
            lines.insert(l);
            if lines.len() as u64 > sets {
                return false; // More lines than sets: cannot be injective.
            }
        }
    }
    let set_indices: BTreeSet<u32> = lines.iter().map(|&l| l % sets as u32).collect();
    set_indices.len() == lines.len()
}

/// The memo key of one cache level: conflict-free levels collapse to
/// their behaviourally relevant parameters; everything else keys on the
/// exact configuration.
fn level_key(cfg: &CacheConfig, fp: Option<&Footprint>) -> String {
    if let Some(fp) = fp {
        if conflict_free(cfg, fp) {
            return format!(
                "free(line={},assoc={},lat={},scope={:?},lru={})",
                cfg.line,
                cfg.assoc,
                cfg.hit_latency,
                cfg.scope,
                matches!(cfg.replacement, Replacement::Lru),
            );
        }
    }
    format!("{cfg:?}")
}

/// The memo key of a measured machine's caches: two machines with equal
/// keys, equal scratchpad specs and equal timing produce identical
/// simulations *and* identical WCET analyses for this program, so one
/// measurement serves both. The footprint collapse only applies to no-scratchpad machines
/// — the footprint describes the shared no-scratchpad link, while
/// scratchpad specs run their own image. Write-policy-dependent machines
/// — where write-allocate makes store addresses load-bearing —
/// additionally require the footprint to cover every store target
/// ([`Footprint::writes_covered`]); conflict-freedom then rules out
/// evictions for dirty lines exactly as it does for clean ones.
fn geometry_key(machine: &MemArchSpec, fp: Option<&Footprint>) -> String {
    let fp = if machine.spm.is_some() {
        None
    } else if machine.hierarchy().write_policy_dependent() {
        fp.filter(|f| f.writes_covered)
    } else {
        fp
    };
    let l1 = match &machine.l1 {
        L1::None => String::from("none"),
        L1::Unified(c) => format!("u[{}]", level_key(c, fp)),
        L1::Split { i, d } => format!(
            "s[{},{}]",
            i.as_ref()
                .map_or_else(|| String::from("-"), |c| level_key(c, fp)),
            d.as_ref()
                .map_or_else(|| String::from("-"), |c| level_key(c, fp)),
        ),
    };
    let l2 = machine
        .l2
        .as_ref()
        .map_or_else(|| String::from("-"), |c| level_key(c, fp));
    format!("{l1}|{l2}|{}", machine.persistence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{GridSpec, L1Shape};
    use crate::sweep::{spec_sweep_with_session, SweepSession};
    use spmlab_isa::cachecfg::WritePolicy;
    use spmlab_isa::hierarchy::StoreBuffer;
    use spmlab_obs::{Sink, SpanMeta};
    use spmlab_workloads::{inputs, G721, INSERTSORT};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    /// The memo key of one canonical spec, as the plan forms it.
    fn effective_spec_key(canon: &MemArchSpec, fp: Option<&Footprint>) -> String {
        let machine = measured_machine(canon);
        let geometry = geometry_key(&machine, fp);
        format!("{:?}|{geometry}|{:?}", machine.spm, machine.main)
    }

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
        fn gauge(&self, _: &'static str, _: u64, _: u64, _: u64) {}
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
        let events = p.baseline().trace.events();
        assert_eq!(walked % events, 0, "whole walks only");
        [walked / events, sink.total("wcet-pass-fixpoints")]
    }

    /// The three perfbench grid shapes on G.721 (reduced input). `dse-wt`
    /// measures all 63 points in one unit per geometry: its 20 cached
    /// geometries walk the trace once each and classify once each, plus
    /// once more for the three latency-0 unified L1s that take paper mode.
    /// `dse-wb` measures only the 54 unbuffered points (its store buffers
    /// are idle), one unit, walk and classification per geometry.
    /// `spm-alloc` is all scratchpad, and planning it never prepares the
    /// no-scratchpad program: one unit per capacity and L1 size.
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
        let spm = plan_counts(&p, &spm_alloc);
        drop(guard);
        assert_eq!(sink.total("wcet-pass-prepare"), 0, "no footprint needed");
        assert_eq!(
            [plan_counts(&p, &dse_wt), plan_counts(&p, &dse_wb), spm],
            [[63, 63, 21], [108, 54, 18], [55, 55, 10]]
        );
        let traced =
            |axis: &[MemArchSpec]| walks_and_classifications(&p, &traced_sweep(&p, axis, false));
        assert_eq!([traced(&dse_wt), traced(&dse_wb)], [[20, 23], [18, 18]]);
    }

    /// On a no-scratchpad insertsort grid with write policy, latency and
    /// store-buffer axes, the plan's points and representatives equal the
    /// traced `sweep_points` and misses: 6 idle-buffered points share
    /// their twin's measurement, the 12 buffered write-through and
    /// uncached points walk the trace on their own beside 5 tallies of
    /// cached machines, and 6 classifications serve 24 cached
    /// representatives. On a cached knapsack and `wcet-region` scratchpad
    /// grid, whose greedy trials classify nothing, the 16 points form one
    /// unit per capacity and L2 size, and points on one link share its
    /// tally and classification: at 512 bytes both allocators choose one
    /// link, so 3 links make 6 walks (`replay` spans) and 6
    /// classifications.
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
        assert_eq!([points, reps, units], [36, 30, 6]);
        let sink = traced_sweep(&p, &axis, false);
        assert_eq!(reps, points - sink.total("sweep_memo_hit"));
        assert_eq!(walks_and_classifications(&p, &sink), [17, 6]);

        let spm_grid = GridSpec {
            spm_sizes: vec![128, 512],
            spm_allocs: vec![SpmAllocation::ProfileKnapsack, SpmAllocation::WcetRegion],
            l1_sizes: vec![256],
            l2_sizes: vec![0, 4096],
            main_latencies: vec![0, 10],
            ..GridSpec::default()
        };
        let axis = spm_grid.axis().unwrap().0;
        assert_eq!(plan_counts(&p, &axis), [16, 16, 4]);
        let sink = traced_sweep(&p, &axis, true);
        assert_eq!(sink.total("sweep_memo_hit"), 0);
        assert_eq!(sink.total("replay"), 6);
        assert_eq!(sink.total("wcet-pass-fixpoints"), 6);
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

    #[test]
    fn oversized_levels_share_an_effective_key() {
        // Once a cache level's sets cover the whole footprint one line
        // each, growing it further cannot change behaviour: the memo must
        // key both capacities identically — and distinct small levels must
        // never collapse.
        let fp = Footprint {
            intervals: vec![(0x0010_0000, 0x0010_0400)], // 1 KiB ⇒ 64 16-B lines
            ranges: vec![],
            writes_covered: true,
        };
        let small_a = CacheConfig::unified(64);
        let small_b = CacheConfig::unified(128);
        assert_ne!(
            level_key(&small_a, Some(&fp)),
            level_key(&small_b, Some(&fp)),
            "conflicting capacities stay distinct"
        );
        let big_a = CacheConfig::unified(2048); // 128 sets ≥ 64 lines
        let big_b = CacheConfig::unified(8192);
        assert_eq!(
            level_key(&big_a, Some(&fp)),
            level_key(&big_b, Some(&fp)),
            "covering capacities collapse"
        );
        let s_a = MemArchSpec::single_cache(big_a);
        let s_b = MemArchSpec::single_cache(big_b);
        assert_eq!(
            effective_spec_key(&s_a.canonical(), Some(&fp)),
            effective_spec_key(&s_b.canonical(), Some(&fp))
        );
    }

    #[test]
    fn equal_after_validation_specs_share_a_key() {
        // The canonical form is the memo key: a spec with zero-size
        // (disabled) levels keys identically to the plainly-written
        // machine, with or without a footprint.
        use spmlab_isa::archspec::{SpmAllocation, SpmSpec};
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
        let plain = MemArchSpec::uncached();
        assert_eq!(
            effective_spec_key(&noisy.canonical(), None),
            effective_spec_key(&plain.canonical(), None)
        );
        // Scratchpad specs must never collapse via the (no-spm) footprint.
        let spm_a = MemArchSpec::builder()
            .spm(256)
            .l1(CacheConfig::unified(2048))
            .build()
            .unwrap();
        let spm_b = MemArchSpec::builder()
            .spm(256)
            .l1(CacheConfig::unified(8192))
            .build()
            .unwrap();
        let fp = Footprint {
            intervals: vec![(0x0010_0000, 0x0010_0400)],
            ranges: vec![],
            writes_covered: true,
        };
        assert_ne!(
            effective_spec_key(&spm_a.canonical(), Some(&fp)),
            effective_spec_key(&spm_b.canonical(), Some(&fp))
        );
        // Write-policy-dependent specs collapse only with write coverage.
        let wb_a = MemArchSpec::single_cache(CacheConfig::unified(2048).write_back());
        let wb_b = MemArchSpec::single_cache(CacheConfig::unified(8192).write_back());
        assert_eq!(
            effective_spec_key(&wb_a.canonical(), Some(&fp)),
            effective_spec_key(&wb_b.canonical(), Some(&fp)),
            "conflict-free WB levels collapse when stores are covered"
        );
        let uncovered = Footprint {
            writes_covered: false,
            ..fp.clone()
        };
        assert_ne!(
            effective_spec_key(&wb_a.canonical(), Some(&uncovered)),
            effective_spec_key(&wb_b.canonical(), Some(&uncovered)),
            "unconstrained stores keep exact keys on WB machines"
        );
    }

    #[test]
    fn range_spanning_all_sets_blocks_the_memo() {
        // An annotated array range that reaches the weaken-every-set
        // threshold behaves differently at different set counts, so such
        // levels must keep exact keys.
        let fp = Footprint {
            intervals: vec![(0x0010_0000, 0x0010_0100)],
            ranges: vec![(0x0010_0000, 0x0010_0100)], // 16 lines
            writes_covered: true,
        };
        let cfg = CacheConfig::unified(256); // 16 sets ⇒ range covers all
        assert!(!conflict_free(&cfg, &fp));
        let big = CacheConfig::unified(1024); // 64 sets > 16 lines
        assert!(conflict_free(&big, &fp));
    }
}
