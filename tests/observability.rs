//! Workspace-level observability tests: the instrumentation the pipeline
//! emits while sweeping (sweep memo/replay counters pinned on the paper's
//! eight-config G.721 hierarchy scenario, the trace walks and
//! classifications of a grid with a latency axis, the memo hits of a
//! write-back grid's idle store buffers, one preparation per scratchpad
//! link, and allocation trials that relocate one preparation), the
//! JSON-lines profile stream a
//! profiled run records, and property tests over the span-tree collector.
//!
//! Every test that installs a sink or runs instrumented code takes
//! `spmlab_obs::exclusive()` first: the sink registry is process-global,
//! so a sink would otherwise see a concurrently-running test's events.

mod common;

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use common::{reference_greedy, reference_hierarchy_aware, routed};
use proptest::prelude::*;
use spmlab::dse::{GridSpec, L1Shape};
use spmlab::pipeline::Pipeline;
use spmlab::sweep::spec_sweep_with_session;
use spmlab::{
    hierarchy_spec_axis, MainMemoryTiming, MemArchSpec, SpecOutcome, SpmSpec, SweepSession,
    DRAM_LATENCY,
};
use spmlab_bench::jsonl::check_stream;
use spmlab_isa::archspec::SpmAllocation;
use spmlab_isa::cachecfg::WritePolicy;
use spmlab_isa::hierarchy::StoreBuffer;
use spmlab_obs::collector::MemorySink;
use spmlab_obs::jsonl::JsonlSink;
use spmlab_sim::MemTrace;
use spmlab_wcet::WcetConfig;
use spmlab_workloads::{inputs, G721, INSERTSORT};

/// Satellite regression pin: the eight-config G.721 hierarchy scenario
/// (two scratchpad points + the six-machine cache axis) must keep its
/// replay-eligible vs full-simulation split. Every cache machine on the
/// axis is write-through, so all six replay from the recorded trace, and
/// both scratchpad points price their link's trace. A config slipping
/// from replay to full simulation (e.g. a write-back level sneaking into
/// the axis, or trace support regressing) changes these counts.
#[test]
fn g721_hierarchy_sweep_memo_counts_pinned() {
    let _x = spmlab_obs::exclusive();
    let sink = Arc::new(MemorySink::default());
    let guard = spmlab_obs::add_sink(sink.clone());

    // Reduced input keeps the pin debug-fast; replay eligibility and memo
    // behaviour depend on the machine configs, not the input length.
    let p = Pipeline::with_input(&G721, inputs::speech_like(48, 0xC0FFEE)).unwrap();
    let spm_fast = p.run(&MemArchSpec::spm(1024)).unwrap();
    let spm_slow = p
        .run(&MemArchSpec {
            main: MainMemoryTiming::dram(DRAM_LATENCY),
            ..MemArchSpec::spm(1024)
        })
        .unwrap();
    let points =
        spec_sweep_with_session(&p, &hierarchy_spec_axis(1024), &SweepSession::none()).unwrap();
    drop(guard);

    assert_eq!(points.len() + 2, 8, "the paper scenario has eight configs");
    assert!(points.iter().all(|o| o.outcome.result().is_some()));
    assert!(spm_fast.wcet_cycles >= spm_fast.sim_cycles);
    assert!(spm_slow.wcet_cycles >= spm_slow.sim_cycles);

    // The cache axis: six distinct effective specs, no memo hits, all six
    // replayed from the recorded trace.
    assert_eq!(sink.counter_total("sweep_points"), 6);
    assert_eq!(sink.counter_total("sweep_memo_miss"), 6);
    assert_eq!(sink.counter_total("sweep_memo_hit"), 0);
    assert_eq!(sink.counter_total("sweep_full_sim"), 0, "no fallback");
    // Six axis replays + the two scratchpad replays.
    assert_eq!(sink.counter_total("sweep_replay"), 8);
}

/// The sweep-level sharing case: a grid with `main_latency` and store
/// buffer axes gives the outcomes of per-point `Pipeline::run`, every
/// point is still priced from the trace (`sweep_replay`), each unbuffered
/// first level walks the trace once for all three latencies and every L2
/// behind it — while store-buffered points each walk it on their own —
/// and each cache geometry runs its MUST/MAY fixpoints and walks its
/// census once for all six timings, which only price it.
#[test]
fn latency_axis_sweep_tallies_each_geometry_once() {
    let grid = GridSpec {
        l1_sizes: vec![0, 256],
        l2_sizes: vec![0, 4096],
        main_latencies: vec![0, 10, 40],
        store_buffers: vec![None, Some(StoreBuffer::new(4, 8))],
        ..GridSpec::default()
    };
    let axis = grid.axis().unwrap().0;
    assert_eq!(axis.len(), 24);
    let _x = spmlab_obs::exclusive();
    let p = Pipeline::new(&INSERTSORT).unwrap();
    let events = MemTrace::from_bytes(&p.trace_bytes()).unwrap().events() as u64;

    let outcomes = {
        let sink = Arc::new(MemorySink::default());
        let guard = spmlab_obs::add_sink(sink.clone());
        let outcomes = spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap();
        drop(guard);
        assert_eq!(sink.counter_total("sweep_points"), 24);
        assert_eq!(sink.counter_total("sweep_memo_miss"), 24);
        assert_eq!(sink.counter_total("sweep_replay"), 24, "every point priced");
        assert_eq!(sink.counter_total("sweep_full_sim"), 0);
        // Of the three unbuffered cache geometries, the L2 alone walks
        // once and the two behind the L1 share its one walk; the uncached
        // one walks nothing; the twelve store-buffered points walk once
        // per point. Pricing every point separately would walk 21 times.
        // The unbuffered walks go through the run index: they visit only
        // the accesses that are not guaranteed first-level hits and skip
        // the rest, so what they visit and skip adds up to the trace.
        let walked = sink.counter_total("replay_events");
        let elided = sink.counter_total("replay_elided");
        assert_eq!(walked + elided, (2 + 12) * events);
        assert!(elided > 0, "the unified L1 and L2 walks skip hits");
        // One classification per cached geometry and analyzer
        // configuration: the no-scratchpad program is prepared once, and
        // every cached geometry's full-flag members share one fixpoint
        // pass. The uncached points have no cache level to classify and
        // run none; the latency-0 unified L1 point takes paper mode,
        // whose flags differ, and runs one of its own. Classifying per
        // point would run it 18 times. Each of the 5 classification keys
        // walks one census, the uncached one included: 4 cached keys and
        // the key every uncached point shares, whatever its timing.
        let spans = sink.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("wcet-pass-prepare"), 1);
        assert_eq!(count("wcet-pass-fixpoints"), 4);
        assert_eq!(count("wcet-pass-census"), 5);
        assert_eq!(count("wcet-pass-costing"), 24, "costing stays per point");
        outcomes
    };
    assert_each_equals_a_direct_run(&p, &outcomes);
}

/// A write-back grid's store buffers are idle: every store is absorbed
/// by a write-back L1 before it could reach one. Over four geometries
/// (unified or split write-back L1, without or with a write-back L2) ×
/// three main latencies, each buffered point shares its unbuffered
/// twin's measurement (a memo hit), so the sweep walks the trace once
/// per L1, feeds the L2 what that walk let through, and costs only the
/// unbuffered points. A grid of buffered points alone still walks once
/// per L1: its members price their latencies from one tally per
/// geometry. Each walk goes through the run index, skipping guaranteed
/// L1 hits, and visits a pinned number of entries. Every point equals a
/// direct `Pipeline::run`.
#[test]
fn write_back_grid_shares_idle_store_buffer_points() {
    let grid = |store_buffers| GridSpec {
        l1_shapes: vec![L1Shape::Unified, L1Shape::Split],
        l1_sizes: vec![256],
        l1_policies: vec![WritePolicy::WriteBack],
        l2_sizes: vec![0, 4096],
        l2_policies: vec![WritePolicy::WriteBack],
        main_latencies: vec![0, 10, 40],
        store_buffers,
        ..GridSpec::default()
    };
    let both = grid(vec![None, Some(StoreBuffer::new(4, 8))])
        .axis()
        .unwrap()
        .0;
    let only_buffered = grid(vec![Some(StoreBuffer::new(4, 8))]).axis().unwrap().0;
    assert_eq!(both.len(), 24);
    assert_eq!(only_buffered.len(), 12);
    let _x = spmlab_obs::exclusive();
    let p = Pipeline::new(&INSERTSORT).unwrap();
    let events = MemTrace::from_bytes(&p.trace_bytes()).unwrap().events() as u64;

    for (axis, buffered_points) in [(both, 12), (only_buffered, 0)] {
        let sink = Arc::new(MemorySink::default());
        let guard = spmlab_obs::add_sink(sink.clone());
        let outcomes = spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap();
        drop(guard);
        let measured = axis.len() as u64 - buffered_points;
        assert_eq!(sink.counter_total("sweep_memo_hit"), buffered_points);
        assert_eq!(sink.counter_total("sweep_memo_miss"), measured);
        assert_eq!(sink.counter_total("sweep_replay"), measured);
        assert_eq!(sink.counter_total("sweep_full_sim"), 0);
        let walked = sink.counter_total("replay_events");
        let elided = sink.counter_total("replay_elided");
        assert_eq!(walked + elided, 2 * events, "one walk per L1");
        // Every geometry's write-back L1 absorbs the stores, so each walk
        // skips the guaranteed L1 hits: 14,555 events per walk, and the
        // split and unified walks visit 16,441 in all. What the two L1s
        // let through reaches the write-back L2 once each.
        assert_eq!(events, 14_555);
        assert_eq!((walked, elided), (16_441, 12_669));
        assert_eq!(sink.counter_total("replay_l2_events"), 1_472);
        let spans = sink.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
        // One census per geometry's classification key: the latencies
        // and the idle buffers price it, none walks it again.
        assert_eq!(count("wcet-pass-fixpoints"), 4, "one per geometry");
        assert_eq!(count("wcet-pass-census"), 4);
        assert_eq!(count("wcet-pass-costing"), measured);
        assert_each_equals_a_direct_run(&p, &outcomes);
    }
}

/// Every outcome of a sweep completed and equals a direct
/// `Pipeline::run` of its spec, energy bits included.
fn assert_each_equals_a_direct_run(p: &Pipeline, outcomes: &[SpecOutcome]) {
    for o in outcomes {
        let r = o.outcome.result().expect("no point fails");
        let direct = p.run(&o.spec).unwrap();
        assert_eq!(r.label, direct.label);
        assert_eq!(r.sim_cycles, direct.sim_cycles, "{}", r.label);
        assert_eq!(r.wcet_cycles, direct.wcet_cycles, "{}", r.label);
        assert_eq!(r.classify, direct.classify, "{}", r.label);
        assert_eq!(r.degraded, direct.degraded, "{}", r.label);
        assert_eq!(
            r.energy_nj.to_bits(),
            direct.energy_nj.to_bits(),
            "{}",
            r.label
        );
    }
}

/// A scratchpad-only grid (two capacities × knapsack or a fixed
/// assignment × no or a unified 1 KiB L1 × two main latencies) measures
/// every point on its scratchpad link and prepares each link's program
/// once, however many hierarchies and timings price it. With no
/// no-scratchpad point, the baseline is never prepared.
#[test]
fn scratchpad_grid_prepares_once_per_link() {
    let grid = GridSpec {
        spm_sizes: vec![256, 1024],
        spm_allocs: vec![SpmAllocation::ProfileKnapsack],
        l1_shapes: vec![L1Shape::Unified],
        l1_sizes: vec![0, 1024],
        l2_sizes: vec![0],
        main_latencies: vec![0, 10],
        ..GridSpec::default()
    };
    let knapsack = grid.axis().unwrap().0;
    let fixed = knapsack.iter().map(|spec| MemArchSpec {
        spm: spec.spm.as_ref().map(|spm| SpmSpec {
            alloc: SpmAllocation::Fixed(vec![String::from("data")]),
            ..spm.clone()
        }),
        ..spec.clone()
    });
    let axis: Vec<MemArchSpec> = knapsack.iter().cloned().chain(fixed).collect();
    assert_eq!(axis.len(), 16);
    let _x = spmlab_obs::exclusive();
    let p = Pipeline::new(&INSERTSORT).unwrap();
    let sink = Arc::new(MemorySink::default());
    let guard = spmlab_obs::add_sink(sink.clone());
    let outcomes = spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap();
    drop(guard);
    let links = sink.counter_total("spm_link_memo_miss");
    assert!((1..=4).contains(&links), "{links} links");
    let prepares = sink
        .spans()
        .iter()
        .filter(|s| s.name == "wcet-pass-prepare")
        .count() as u64;
    assert_eq!(prepares, links, "one preparation per link");
    assert_eq!(sink.counter_total("sweep_replay"), 16);
    assert_eq!(sink.counter_total("sweep_full_sim"), 0);
    assert_each_equals_a_direct_run(&p, &outcomes);
}

/// The allocator's trial memo over a small scratchpad grid (two
/// capacities × `wcet-region`/`wcet` × two main latencies; at latency 0
/// `wcet` over plain region timing is `wcet-region`): the pipeline's
/// greedies share trials across capacities and objectives, and
/// link and analyse each distinct (assignment, objective, map has a
/// scratchpad) exactly once — the count a per-trial reference greedy
/// yields for the same allocations. Only the memo's first trial prepares
/// its program for analysis; every later one relocates that preparation
/// (debug builds also relocate to re-check each memo hit), so the sweep
/// prepares once per scratchpad link and once more.
#[test]
fn spm_grid_analyses_each_allocation_trial_once() {
    let grid = GridSpec {
        spm_sizes: vec![128, 512],
        spm_allocs: vec![SpmAllocation::WcetRegion, SpmAllocation::WcetAware],
        main_latencies: vec![0, 10],
        ..GridSpec::default()
    };
    let axis = grid.axis().unwrap().0;
    assert_eq!(axis.len(), 6);
    let _x = spmlab_obs::exclusive();
    let p = Pipeline::new(&INSERTSORT).unwrap();
    let sink = Arc::new(MemorySink::default());
    let guard = spmlab_obs::add_sink(sink.clone());
    let outcomes = spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap();
    drop(guard);
    assert!(outcomes.iter().all(|o| o.outcome.result().is_some()));

    let mut aware_objectives: Vec<WcetConfig> = Vec::new();
    for spec in &axis {
        let obj = routed(spec);
        if spec.spm.as_ref().unwrap().alloc == SpmAllocation::WcetAware
            && !aware_objectives.contains(&obj)
        {
            aware_objectives.push(obj);
        }
    }
    assert_eq!(
        aware_objectives,
        [WcetConfig::region_timing_with(MainMemoryTiming::dram(10))]
    );
    let mut distinct = BTreeSet::new();
    let mut record = |log: Vec<(u32, spmlab_cc::SpmAssignment)>, obj: &WcetConfig| {
        for (capacity, a) in log {
            distinct.insert((format!("{obj:?}"), capacity > 0, format!("{a:?}")));
        }
    };
    let region_obj = WcetConfig::region_timing();
    for capacity in [128, 512] {
        let mut log = Vec::new();
        let region = reference_greedy(p.module(), capacity, &region_obj, &mut log).unwrap();
        record(log, &region_obj);
        for obj in &aware_objectives {
            let mut log = Vec::new();
            reference_hierarchy_aware(p.module(), capacity, obj, &region.assignment, &mut log)
                .unwrap();
            record(log, obj);
        }
    }
    let hits = sink.counter_total("alloc_trial_memo_hit");
    let misses = sink.counter_total("alloc_trial_memo_miss");
    assert!(hits > 0);
    assert_eq!(misses, distinct.len() as u64);

    let spans = sink.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    assert_eq!(
        count("wcet-pass-prepare"),
        1 + sink.counter_total("spm_link_memo_miss")
    );
    let rechecks = if cfg!(debug_assertions) { hits } else { 0 };
    assert_eq!(count("wcet-pass-relocate"), misses - 1 + rechecks);
}

/// IPET models: a cache grid builds one model per distinct function shape
/// of the program, and every other solve runs on a stored model. Each
/// solve is one `ipet` span inside its function's `wcet-fn-cost` span.
#[test]
fn sweep_builds_one_ipet_model_per_function_shape() {
    let grid = GridSpec {
        l1_sizes: vec![0, 256],
        l2_sizes: vec![0, 4096],
        main_latencies: vec![0, 10],
        ..GridSpec::default()
    };
    let axis = grid.axis().unwrap().0;
    let _x = spmlab_obs::exclusive();
    let linked = INSERTSORT
        .build(
            &spmlab_isa::mem::MemoryMap::no_spm(),
            &spmlab_cc::SpmAssignment::none(),
            &INSERTSORT.typical_input(),
        )
        .unwrap();
    let prepared = spmlab_wcet::prepare(&linked.exe, &linked.annotations).unwrap();
    let shapes: HashSet<&spmlab_wcet::ipet::Shape> = prepared.shapes().collect();

    let p = Pipeline::new(&INSERTSORT).unwrap();
    let sink = Arc::new(MemorySink::default());
    let guard = spmlab_obs::add_sink(sink.clone());
    let outcomes = spec_sweep_with_session(&p, &axis, &SweepSession::none()).unwrap();
    drop(guard);
    assert!(outcomes.iter().all(|o| o.outcome.result().is_some()));

    let spans = sink.spans();
    let solves: Vec<_> = spans.iter().filter(|s| s.name == "ipet").collect();
    let built = sink.counter_total("ipet_model_built");
    let reused = sink.counter_total("ipet_model_reused");
    assert_eq!(built, shapes.len() as u64);
    assert_eq!(built + reused, solves.len() as u64);
    assert_eq!(
        solves.len(),
        axis.len() * prepared.cfgs().len(),
        "one solve per function and point"
    );
    for s in solves {
        let parent = spans.iter().find(|p| Some(p.id) == s.parent).unwrap();
        assert_eq!(parent.name, "wcet-fn-cost");
    }
}

/// A profiled run records a well-formed JSON-lines stream (balanced span
/// opens/closes, per-thread monotonic timestamps) and the collector's
/// per-phase self times account for the run's wall time within 5%.
#[test]
fn profiled_sweep_stream_is_valid_and_phases_cover_wall_time() {
    let _x = spmlab_obs::exclusive();
    let path = std::env::temp_dir().join("spmlab_obs_profile_test.jsonl");
    let _ = std::fs::remove_file(&path);

    let sink = Arc::new(MemorySink::default());
    let file = std::fs::File::create(&path).unwrap();
    let stream_guard = spmlab_obs::add_sink(Arc::new(JsonlSink::new(file)));
    let mem_guard = spmlab_obs::add_sink(sink.clone());

    let start = std::time::Instant::now();
    {
        let _root = spmlab_obs::span("profile-test-root");
        let p = Pipeline::with_input(&G721, inputs::speech_like(48, 0xC0FFEE)).unwrap();
        let outcomes =
            spec_sweep_with_session(&p, &hierarchy_spec_axis(512), &SweepSession::none()).unwrap();
        assert!(outcomes.iter().all(|o| o.outcome.result().is_some()));
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    drop(mem_guard);
    drop(stream_guard); // flushes the file

    // Stream sanity: parses, balanced, monotonic.
    let text = std::fs::read_to_string(&path).unwrap();
    let summary = check_stream(&text).unwrap();
    assert_eq!(summary.span_opens, summary.span_closes, "balanced");
    assert!(summary.span_opens > 0 && summary.counters > 0);

    // Collector sanity: the span tree is well-formed and self times
    // telescope to the root's inclusive time, which tracks the measured
    // wall time within 5% (profiled sweeps are single-threaded).
    sink.validate().unwrap();
    let total_self: u64 = sink.flat_profile().iter().map(|r| r.self_ns).sum();
    let root_ns = sink.root_ns();
    assert_eq!(total_self, root_ns, "self times telescope exactly");
    let drift = (root_ns as f64 - wall_ns as f64).abs() / wall_ns as f64;
    assert!(
        drift < 0.05,
        "per-phase totals within 5% of wall: root={root_ns}ns wall={wall_ns}ns"
    );
    let _ = std::fs::remove_file(&path);
}

/// Replays one op sequence as scoped spans, mirroring the nesting in a
/// plain stack, and returns the expected (name, parent_name) pairs in
/// open order. `ops` drive open (low values, bounded depth) vs close.
fn run_span_script(ops: &[u8]) -> Vec<(&'static str, Option<&'static str>)> {
    const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];
    let mut live: Vec<(spmlab_obs::Span, &'static str)> = Vec::new();
    let mut expected = Vec::new();
    for &op in ops {
        if op < 170 && live.len() < 8 {
            let name = NAMES[(op % 5) as usize];
            expected.push((name, live.last().map(|(_, n)| *n)));
            live.push((spmlab_obs::span(name), name));
        } else {
            live.pop(); // drops the innermost span, closing it
        }
    }
    // Drop order within a Vec is front-to-back, which would close parents
    // before children; unwind explicitly instead.
    while live.pop().is_some() {}
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomly interleaved scoped spans always produce a well-formed
    /// tree in the collector: every span closes, nesting intervals are
    /// properly bracketed, and each span's parent is exactly the span
    /// that was innermost when it opened.
    #[test]
    fn random_span_interleavings_form_a_well_formed_tree(ops in prop::collection::vec(any::<u8>(), 0..64)) {
        let _x = spmlab_obs::exclusive();
        let sink = Arc::new(MemorySink::default());
        let guard = spmlab_obs::add_sink(sink.clone());
        let expected = run_span_script(&ops);
        drop(guard);

        sink.validate().unwrap();
        let spans = sink.spans();
        prop_assert_eq!(spans.len(), expected.len());
        let by_id: std::collections::BTreeMap<u64, &str> =
            spans.iter().map(|s| (s.id, s.name)).collect();
        for (span, (name, parent_name)) in spans.iter().zip(&expected) {
            prop_assert_eq!(span.name, *name);
            prop_assert!(span.close_ns.is_some(), "every span closes");
            let actual_parent = span.parent.map(|p| by_id[&p]);
            prop_assert_eq!(actual_parent, *parent_name);
        }
    }
}
