//! The sharing plan of one sweep: [`SweepPlan::build`] decides, before
//! anything is measured, what the sweep's points share.
//!
//! - Points whose [`measured_machine`]s have equal timing and equal
//!   [`geometry_key`] share one measurement, their representative's.
//! - A representative has a *fixed link* when its link depends on neither
//!   the hierarchy nor the timing: no scratchpad (the capacity-0 link), or
//!   a scratchpad whose assignment is `Empty`, `Fixed`, `ProfileKnapsack`
//!   or `WcetRegion`. MiniC's path does not depend on where objects lie,
//!   so every link of a program reads the cycle register as often as the
//!   baseline does.
//! - Fixed-link representatives that the baseline trace prices from a
//!   latency-0 tally
//!   ([`MemTrace::priceable`](spmlab_sim::MemTrace::priceable)) and that
//!   differ only in `main.latency` share one tally (the [`geometry_key`]
//!   holds the scratchpad spec, so only one link's points share).
//! - Fixed-link representatives with a cache level, one scratchpad spec
//!   and one
//!   [`WcetConfig::classification_key`](spmlab_wcet::WcetConfig::classification_key)
//!   share one classification, under an unlimited budget: classification
//!   reads no latency.
//! - `WcetAware` representatives with a cache level, one scratchpad spec
//!   and one classification key form one allocation node, under an
//!   unlimited budget: each greedy names the node's objectives as its
//!   [twins](spmlab_alloc::wcet_aware::TrialMemo), so a trial classified
//!   for one is costed for all of them.
//! - Representatives joined by a shared tally, classification or
//!   allocation form one executor unit, which one worker measures in
//!   turn, so shared results live only as long as their unit and twins
//!   never race on two workers.
//!
//! Each count predicts a traced counter: points less representatives are
//! `sweep_memo_hit`; tallies of cached machines plus the representatives
//! replayed on their own are the walks of the traces, on a sweep without
//! scratchpad points (`replay_events` + `replay_elided`) / events; and,
//! where no WCET-aware greedy classifies trials, classifications are
//! `wcet-pass-fixpoints` spans.

use crate::pipeline::Pipeline;
use spmlab_isa::archspec::{MemArchSpec, SpmAllocation};
use spmlab_isa::cachecfg::{CacheConfig, Replacement};
use spmlab_isa::hierarchy::{MainMemoryTiming, L1};
use spmlab_sim::Tally;
use spmlab_wcet::{Classified, WcetConfig};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// One measured machine and the sweep points that share its measurement.
pub(crate) struct Rep {
    /// The [`measured_machine`] of the representative's canonical spec.
    pub machine: MemArchSpec,
    /// Axis indices of the points sharing the measurement, the
    /// representative first.
    pub points: Vec<usize>,
    /// The node of the latency-0 tally it prices from, if shared.
    pub tally: Option<usize>,
    /// The node of the classification it costs from, if shared.
    pub classified: Option<usize>,
    /// The routed objectives of the `WcetAware` representatives its
    /// allocation node joins, its own included; empty without one.
    pub twins: Vec<WcetConfig>,
}

/// The shared results of one unit execution by node, each filled by the
/// first member that needs it.
#[derive(Default)]
pub(crate) struct Slots {
    pub tallies: BTreeMap<usize, Option<Tally>>,
    pub classified: BTreeMap<usize, Option<Classified>>,
}

/// What a sweep measures and shares: its executor units, each the
/// representatives one worker measures in turn, in the order of their
/// first representative.
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
        let mut rep_of_key: BTreeMap<String, usize> = BTreeMap::new();
        let mut reps: Vec<Rep> = Vec::new();
        // Units are the connected components of the shared nodes: `root`
        // links each representative toward the first of its unit, and
        // `first` holds each node's first representative.
        let mut root: Vec<usize> = Vec::new();
        let find = |root: &[usize], mut r: usize| {
            while root[r] != r {
                r = root[r];
            }
            r
        };
        let mut node_of: BTreeMap<String, usize> = BTreeMap::new();
        let mut first: Vec<usize> = Vec::new();
        // The objectives of each allocation node's members, and each
        // representative's allocation node.
        let mut objectives: BTreeMap<usize, Vec<WcetConfig>> = BTreeMap::new();
        let mut alloc_of: Vec<Option<usize>> = Vec::new();
        for &(i, canon) in points {
            let machine = measured_machine(canon);
            let geometry = geometry_key(&machine, fp.as_ref());
            let r = reps.len();
            match rep_of_key.entry(format!("{geometry}|{:?}", machine.main)) {
                Entry::Occupied(o) => {
                    reps[*o.get()].points.push(i);
                    continue;
                }
                Entry::Vacant(v) => v.insert(r),
            };
            root.push(r);
            let mut share = |key: Option<String>| {
                key.map(|k| {
                    let n = *node_of.entry(k).or_insert(first.len());
                    if n == first.len() {
                        first.push(r);
                    }
                    let (a, b) = (find(&root, first[n]), find(&root, r));
                    root[a.max(b)] = a.min(b);
                    n
                })
            };
            let fixed_link = machine
                .spm
                .as_ref()
                .is_none_or(|s| s.alloc != SpmAllocation::WcetAware);
            let tallied = MainMemoryTiming {
                latency: 0,
                ..machine.main
            };
            let wcfg = pipeline.wcet_config_for(&machine);
            let tally = share(
                (fixed_link && pipeline.baseline().trace.priceable(&machine.hierarchy()))
                    .then(|| format!("tally {geometry}|{tallied:?}")),
            );
            let classifies = machine.has_cache_levels() && !wcfg.budget.is_limited();
            let class = || format!("{:?}|{:?}", machine.spm, wcfg.classification_key());
            let classified =
                share((fixed_link && classifies).then(|| format!("classify {}", class())));
            let alloc = share((!fixed_link && classifies).then(|| format!("alloc {}", class())));
            if let Some(n) = alloc {
                objectives.entry(n).or_default().push(wcfg);
            }
            alloc_of.push(alloc);
            reps.push(Rep {
                machine,
                points: vec![i],
                tally,
                classified,
                twins: Vec::new(),
            });
        }
        let mut units: Vec<Vec<Rep>> = Vec::new();
        let mut unit_of = vec![0; reps.len()];
        for (r, mut rep) in reps.into_iter().enumerate() {
            if let Some(n) = alloc_of[r] {
                rep.twins.clone_from(&objectives[&n]);
            }
            let head = find(&root, r);
            if head == r {
                unit_of[r] = units.len();
                units.push(Vec::new());
            }
            units[unit_of[head]].push(rep);
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

/// The memo key of a measured machine less its main-memory timing: two
/// machines with equal keys and equal timing produce identical
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
    format!("{:?}|{l1}|{l2}|{}", machine.spm, machine.persistence)
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
        format!("{}|{:?}", geometry_key(&machine, fp), machine.main)
    }

    /// A plan's node counts.
    #[derive(Debug, PartialEq, Eq)]
    struct Counts {
        points: usize,
        representatives: usize,
        units: usize,
        /// Walks of a link's trace: one per tally of a cached machine, one
        /// per representative replayed on its own (an uncached machine
        /// priced from its own tally walks nothing).
        walks: usize,
        /// Classifications of a cached machine's link, shared or not
        /// (a WCET-aware greedy's trials not included).
        classifications: usize,
    }

    impl Counts {
        /// Points, representatives, units, walks and classifications.
        fn array(&self) -> [usize; 5] {
            let c = self;
            [
                c.points,
                c.representatives,
                c.units,
                c.walks,
                c.classifications,
            ]
        }
    }

    /// Plans every point of `axis`, as a sweep without resumed points
    /// does, and counts its nodes.
    fn plan_counts(p: &Pipeline, axis: &[MemArchSpec]) -> Counts {
        let canons: Vec<MemArchSpec> = axis.iter().map(MemArchSpec::canonical).collect();
        let points: Vec<(usize, &MemArchSpec)> = canons.iter().enumerate().collect();
        let plan = SweepPlan::build(p, &points);
        let reps: Vec<&Rep> = plan.units.iter().flatten().collect();
        let cached = |r: &&&Rep| r.machine.has_cache_levels();
        let distinct =
            |nodes: Vec<Option<usize>>| nodes.iter().flatten().collect::<BTreeSet<_>>().len();
        Counts {
            points: axis.len(),
            representatives: reps.len(),
            units: plan.units.len(),
            walks: distinct(reps.iter().filter(cached).map(|r| r.tally).collect())
                + reps
                    .iter()
                    .filter(|r| r.tally.is_none())
                    .filter(|r| cached(r) || !p.baseline().trace.priceable(&r.machine.hierarchy()))
                    .count(),
            classifications: distinct(reps.iter().map(|r| r.classified).collect())
                + reps
                    .iter()
                    .filter(cached)
                    .filter(|r| r.classified.is_none())
                    .count(),
        }
    }

    /// Totals this thread's counters and span opens by name. A sweep runs
    /// serially on its caller while a sink is installed, and the events of
    /// tests running beside it come from their own threads.
    struct ThreadTotals {
        thread: ThreadId,
        totals: Mutex<BTreeMap<&'static str, u64>>,
    }

    impl ThreadTotals {
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

    /// Runs `f` with a [`ThreadTotals`] sink installed.
    fn traced<R>(f: impl FnOnce() -> R) -> (R, Arc<ThreadTotals>) {
        let sink = Arc::new(ThreadTotals {
            thread: std::thread::current().id(),
            totals: Mutex::default(),
        });
        let guard = spmlab_obs::add_sink(sink.clone());
        let r = f();
        drop(guard);
        (r, sink)
    }

    /// The three perfbench grid shapes on G.721 (reduced input). `dse-wt`
    /// measures all 63 points in one unit per geometry: its 20 cached
    /// geometries walk the trace once each and classify once each, plus
    /// once more for the three latency-0 unified L1s that take paper mode.
    /// `dse-wb` measures only the 54 unbuffered points (its store buffers
    /// are idle), one unit, walk and classification per geometry.
    /// `spm-alloc` is all scratchpad, and planning it never prepares the
    /// no-scratchpad program. Its 40 knapsack and `wcet-region` points
    /// have fixed links and pair up with their latency twins: 20 units,
    /// each one tally (walking only for the 10 cached pairs) and, cached,
    /// one classification. Its 15 WCET-aware points form 5 allocation
    /// nodes of the 1 KiB-L1 latency twins, and 5 units of one for the
    /// uncached latency-10 points; the 10 cached ones walk and classify
    /// on their own.
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
        };
        let dse_wb = GridSpec {
            l1_sizes: vec![256, 1024, 4096],
            l1_policies: vec![WritePolicy::WriteBack],
            l2_policies: vec![WritePolicy::WriteBack],
            store_buffers: vec![None, Some(StoreBuffer::new(4, 8))],
            ..base
        };
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
        };
        let counts = |grid: GridSpec| plan_counts(&p, &grid.axis().unwrap().0);
        let (spm, sink) = traced(|| counts(spm_alloc));
        assert_eq!(sink.total("wcet-pass-prepare"), 0, "no footprint needed");
        let got = [counts(dse_wt), counts(dse_wb), spm];
        let dse_wt = [63, 63, 21, 20, 23];
        let dse_wb = [108, 54, 18, 18, 18];
        assert_eq!(
            got.map(|c| c.array()),
            [dse_wt, dse_wb, [55, 55, 30, 20, 20]]
        );
    }

    /// On a no-scratchpad insertsort grid with write policy, latency and
    /// store-buffer axes, each count of the plan equals the traced counter
    /// it predicts: 6 idle-buffered points share their twin's measurement,
    /// the 12 buffered write-through and uncached points walk the trace on
    /// their own beside 5 tallies of cached machines, and 6 classifications
    /// serve 24 cached representatives. On a cached knapsack and
    /// `wcet-region` scratchpad grid, whose greedy trials classify nothing,
    /// latency twins share their link's tally and classification: 16
    /// points in 8 units, each one walk (one `replay` span) and one
    /// classification.
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
        let counts = plan_counts(&p, &axis);
        assert_eq!(counts.array(), [36, 30, 9, 17, 6]);
        let (outcomes, sink) =
            traced(|| spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap());
        assert!(outcomes.iter().all(|o| o.outcome.result().is_some()));
        let points = sink.total("sweep_points");
        assert_eq!(counts.points, points);
        assert_eq!(
            counts.representatives,
            points - sink.total("sweep_memo_hit")
        );
        let walked = sink.total("replay_events") + sink.total("replay_elided");
        assert_eq!(counts.walks * p.baseline().trace.events(), walked);
        assert_eq!(counts.classifications, sink.total("wcet-pass-fixpoints"));

        let spm_grid = GridSpec {
            spm_sizes: vec![128, 512],
            spm_allocs: vec![SpmAllocation::ProfileKnapsack, SpmAllocation::WcetRegion],
            l1_sizes: vec![256],
            l2_sizes: vec![0, 4096],
            main_latencies: vec![0, 10],
            ..GridSpec::default()
        };
        let axis = spm_grid.axis().unwrap().0;
        let counts = plan_counts(&p, &axis);
        assert_eq!(counts.array(), [16, 16, 8, 8, 8]);
        let (outcomes, sink) =
            traced(|| spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap());
        for o in &outcomes {
            let r = o.outcome.result().expect("every point measures");
            let direct = p.run(&o.spec).unwrap();
            assert_eq!(
                (r.sim_cycles, r.wcet_cycles, &r.spm_objects),
                (direct.sim_cycles, direct.wcet_cycles, &direct.spm_objects),
                "{}",
                r.label
            );
        }
        assert_eq!(counts.points, sink.total("sweep_points"));
        assert_eq!(sink.total("sweep_memo_hit"), 0);
        assert_eq!(counts.walks, sink.total("replay"));
        assert_eq!(counts.classifications, sink.total("wcet-pass-fixpoints"));
    }

    /// A program that reads the cycle register records traces no tally
    /// prices, whatever its link: its scratchpad latency twins share no
    /// tally, and every point still equals `Pipeline::run`. Toolchains
    /// without the `__cycles` intrinsic have no such program.
    #[test]
    fn timing_dependent_scratchpad_points_share_no_tally() {
        use spmlab_workloads::{Benchmark, InputGen, Reference};
        use std::borrow::Cow;
        let src = "int input[4] = {0}; int n_samples = 4; int t; int checksum;\n\
                   void main() { int i; t = __cycles(); \
                   for (i = 0; i < 4; i = i + 1) { __loopbound(4); \
                   checksum = checksum * 17 + input[i]; } }";
        let (Ok(program), Ok(_)) = (spmlab_cc::parse_source(src), spmlab_cc::compile(src)) else {
            return; // No __cycles intrinsic in this toolchain: nothing to test.
        };
        let bench = Benchmark {
            name: Cow::Borrowed("cycles"),
            description: Cow::Borrowed("reads the cycle register"),
            source: Cow::Borrowed(src),
            input_global: Cow::Borrowed("input"),
            count_global: Cow::Borrowed("n_samples"),
            typical_input: InputGen::Fixed(Arc::new(vec![3, -7, 11, 100])),
            worst_input: None,
            reference_checksum: Reference::Interp {
                program: Arc::new(program),
                max_steps: 100_000,
            },
        };
        let p = Pipeline::new(&bench).unwrap();
        assert!(p.baseline().trace.cycle_reads() > 0);
        let grid = GridSpec {
            spm_sizes: vec![128],
            spm_allocs: vec![SpmAllocation::ProfileKnapsack, SpmAllocation::WcetRegion],
            l1_sizes: vec![0, 256],
            main_latencies: vec![0, 10],
            ..GridSpec::default()
        };
        let axis = grid.axis().unwrap().0;
        let canons: Vec<MemArchSpec> = axis.iter().map(MemArchSpec::canonical).collect();
        let points: Vec<(usize, &MemArchSpec)> = canons.iter().enumerate().collect();
        let plan = SweepPlan::build(&p, &points);
        assert!(plan.units.iter().flatten().all(|r| r.tally.is_none()));
        for o in spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap() {
            let r = o.outcome.result().expect("every point measures");
            let direct = p.run(&o.spec).unwrap();
            assert_eq!(
                (r.sim_cycles, r.wcet_cycles, &r.spm_objects),
                (direct.sim_cycles, direct.wcet_cycles, &direct.spm_objects),
                "{}",
                r.label
            );
        }
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
