//! Fault-injection suite: proves the fault-tolerance layer under fire.
//!
//! Every injected fault — typed error, panic, or delay, at any pipeline
//! phase — must be *contained* to its sweep point (the process never
//! aborts and the other points complete), *reported* (as a `Failed`
//! outcome carried into figures and checkpoints, never silently dropped),
//! and *recoverable* (resuming the checkpoint of a faulted run reproduces
//! the uninterrupted result bit-identically).
//!
//! The harness (`spmlab::faults`) only exists because the root package's
//! dev-dependencies arm the `fault-injection` cargo feature for test
//! builds; release library builds compile the hooks out.

use std::time::Duration;

use spmlab::dse::{merge_texts, shard_header, Shard};
use spmlab::faults::{arm, FaultAction, FaultPlan};
use spmlab::figures::FigureHierarchy;
use spmlab::sweep::{spec_sweep, spec_sweep_with_session};
use spmlab::{
    check_checkpoint, CheckpointHeader, CoreError, MemArchSpec, Pipeline, PointOutcome,
    SweepSession,
};
use spmlab_bench::dse::{grid_benchmark, sweep_axis};
use spmlab_bench::{artifact_json, experiment};
use spmlab_isa::cachecfg::CacheConfig;
use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig, StoreBuffer};
use spmlab_workloads::INSERTSORT;

/// An inert plan: arming it takes the harness lock without faulting
/// anything, so a test can hold one guard from its first
/// `Pipeline::new` on and [`FaultGuard::rearm`](spmlab::faults::FaultGuard::rearm)
/// the real plan later.
fn inert() -> FaultPlan {
    FaultPlan::new("no-such-phase", 1, FaultAction::Error)
}

/// A three-point axis with distinct effective configurations: two
/// scratchpad capacities and one cached machine.
fn small_axis() -> Vec<MemArchSpec> {
    vec![
        MemArchSpec::spm(128),
        MemArchSpec::spm(256),
        MemArchSpec::single_cache(CacheConfig::unified(256)),
    ]
}

/// Two cache shapes at three main-memory latencies: the sweep plan makes
/// each shape's points one executor unit sharing a single trace tally. (A
/// unified and a split L1 never share a memo key, so every point is its
/// own measurement.)
fn latency_axis() -> Vec<MemArchSpec> {
    let shapes = [
        MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
        MemHierarchyConfig::split_l1(256, 256),
    ];
    let mut axis = Vec::new();
    for shape in &shapes {
        for latency in [0, 10, 40] {
            axis.push(MemArchSpec::from_hierarchy(
                &shape.clone().with_main(MainMemoryTiming::dram(latency)),
            ));
        }
    }
    axis
}

/// One split-L1 geometry at three main-memory latencies, without and with
/// a store buffer: the sweep plan makes them one executor unit, measured
/// serially in axis order, sharing one cache classification.
fn main_timing_axis() -> Vec<MemArchSpec> {
    let shape = MemHierarchyConfig::split_l1(256, 256);
    let mut axis = Vec::new();
    for store_buffer in [None, Some(StoreBuffer::new(4, 8))] {
        for latency in [0, 10, 40] {
            let main = MainMemoryTiming {
                store_buffer,
                ..MainMemoryTiming::dram(latency)
            };
            axis.push(MemArchSpec::from_hierarchy(&shape.clone().with_main(main)));
        }
    }
    axis
}

/// A scratch directory for this test process's checkpoint files.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spmlab-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

#[test]
fn typed_errors_fail_exactly_the_affected_points() {
    // `nth` counts calls of the armed phase across the whole (parallel)
    // sweep, so *which* point fails is scheduling-dependent — but exactly
    // one measurement errors, and with three distinct effective configs
    // that is exactly one failed point. Each phase gets a fresh pipeline:
    // the scratchpad-link memo would otherwise swallow later `link` calls.
    for phase in ["measure-spec", "alloc", "analyze", "link"] {
        // One guard from set-up on: no concurrently armed plan can fire
        // in this pipeline's construction.
        let guard = arm(inert());
        let p = Pipeline::new(&INSERTSORT).expect("pipeline");
        guard.rearm(FaultPlan::new(phase, 1, FaultAction::Error));
        let outcomes = spec_sweep_with_session(&p, &small_axis(), &SweepSession::none())
            .expect("sweep survives");
        assert!(guard.fired(), "phase `{phase}` was reached");
        let failed: Vec<_> = outcomes
            .iter()
            .filter_map(|o| o.outcome.failure())
            .collect();
        assert_eq!(failed.len(), 1, "phase `{phase}`: exactly one point fails");
        assert!(!failed[0].panicked, "a typed error is not a panic");
        assert!(
            failed[0].error.contains("injected fault"),
            "phase `{phase}`: {}",
            failed[0].error
        );
        let completed: Vec<_> = outcomes.iter().filter_map(|o| o.outcome.result()).collect();
        assert_eq!(completed.len(), 2, "phase `{phase}`: the rest completes");
        for r in completed {
            assert!(r.wcet_cycles >= r.sim_cycles, "{}", r.label);
        }
        // The all-or-nothing wrapper reports the failure without dropping
        // the completed points.
        guard.rearm(FaultPlan::new(phase, 1, FaultAction::Error));
        let err = spec_sweep(&p, &small_axis()).unwrap_err();
        drop(guard);
        match err {
            CoreError::Sweep(f) => {
                assert_eq!(f.completed.len(), 2, "phase `{phase}`");
                assert_eq!(f.failed.len(), 1, "phase `{phase}`");
                assert_eq!(f.total, 3, "phase `{phase}`");
            }
            other => panic!("expected CoreError::Sweep, got {other}"),
        }
    }
}

#[test]
fn panics_are_contained_per_point() {
    // A panic fails exactly the point it hits: the pipeline's memo locks
    // recover from poisoning, so every other point — including the
    // other members of an executor unit sharing one trace tally — still
    // completes, with the numbers a direct run gives.
    let cases = [
        ("measure-spec", small_axis()),
        ("alloc", small_axis()),
        ("analyze", small_axis()),
        ("measure-spec", latency_axis()),
        ("analyze", latency_axis()),
    ];
    for (phase, axis) in cases {
        // One serial guard over the whole body, `Pipeline::new` included.
        let guard = arm(inert());
        let p = Pipeline::new(&INSERTSORT).expect("pipeline");
        guard.rearm(FaultPlan::new(phase, 1, FaultAction::Panic));
        let outcomes = spec_sweep_with_session(&p, &axis, &SweepSession::none())
            .expect("sweep survives the panic");
        assert!(guard.fired(), "phase `{phase}` was reached");
        guard.rearm(inert());
        assert_eq!(outcomes.len(), axis.len(), "every point has an outcome");
        let failed: Vec<_> = outcomes
            .iter()
            .filter_map(|o| o.outcome.failure())
            .collect();
        assert_eq!(failed.len(), 1, "phase `{phase}`: exactly one point fails");
        assert!(failed[0].panicked, "phase `{phase}`: reported as a panic");
        assert!(
            failed[0].error.contains("injected panic"),
            "phase `{phase}`: the panic message is carried into the record"
        );
        for o in &outcomes {
            let Some(r) = o.outcome.result() else {
                continue;
            };
            assert!(r.wcet_cycles >= r.sim_cycles, "{}", r.label);
            let direct = p.run(&o.spec).expect("direct run");
            assert_eq!(r.sim_cycles, direct.sim_cycles, "{}", r.label);
            assert_eq!(r.wcet_cycles, direct.wcet_cycles, "{}", r.label);
        }
    }
}

#[test]
fn faults_inside_a_shared_unit_fail_only_their_member() {
    // A member's analysis fails — the second after the first has
    // classified the geometry, or the first before anyone has: that point
    // alone fails, and every other member costs from one shared
    // classification to the numbers a direct run gives.
    let cases = [2, 1]
        .into_iter()
        .flat_map(|nth| [FaultAction::Error, FaultAction::Panic].map(|action| (nth, action)));
    for (nth, action) in cases {
        let guard = arm(inert());
        let p = Pipeline::new(&INSERTSORT).expect("pipeline");
        guard.rearm(FaultPlan::new("analyze", nth, action));
        let outcomes = spec_sweep_with_session(&p, &main_timing_axis(), &SweepSession::none())
            .expect("sweep survives");
        assert!(guard.fired(), "{action:?}: analysis #{nth} was reached");
        guard.rearm(inert());
        for (i, o) in outcomes.iter().enumerate() {
            if i + 1 == nth {
                let failed = o.outcome.failure().expect("the faulted member fails");
                assert_eq!(failed.panicked, action == FaultAction::Panic, "{action:?}");
                continue;
            }
            assert!(
                matches!(o.outcome, PointOutcome::Ok(_)),
                "{action:?}: point {i} completes"
            );
            let r = o.outcome.result().expect("completed");
            let direct = p.run(&o.spec).expect("direct run");
            assert_eq!(r.sim_cycles, direct.sim_cycles, "{}", r.label);
            assert_eq!(r.wcet_cycles, direct.wcet_cycles, "{}", r.label);
            assert_eq!(r.classify, direct.classify, "{}", r.label);
        }
    }
}

/// One scratchpad link under six machines: the knapsack's 256-byte
/// assignment without and with a unified L1, at three main latencies.
fn shared_link_axis() -> Vec<MemArchSpec> {
    let mut axis = Vec::new();
    for l1 in [
        MemHierarchyConfig::uncached(),
        MemHierarchyConfig::l1_only(CacheConfig::unified(1024)),
    ] {
        for latency in [0, 10, 40] {
            let hierarchy = l1.clone().with_main(MainMemoryTiming::dram(latency));
            axis.push(MemArchSpec {
                spm: MemArchSpec::spm(256).spm,
                ..MemArchSpec::from_hierarchy(&hierarchy)
            });
        }
    }
    axis
}

#[test]
fn concurrent_points_link_a_shared_scratchpad_configuration_once() {
    // Every point resolves to the same `(capacity, assignment)`: the
    // first worker links it while the others wait for that link, so the
    // `link` phase is reached once and a fault armed at its second call
    // never fires.
    let guard = arm(inert());
    let p = Pipeline::new(&INSERTSORT).expect("pipeline");
    guard.rearm(FaultPlan::new("link", 2, FaultAction::Error));
    let outcomes = spec_sweep_with_session(&p, &shared_link_axis(), &SweepSession::none())
        .expect("sweep survives");
    assert!(!guard.fired(), "the shared link was linked twice");
    drop(guard);
    for o in &outcomes {
        let r = o.outcome.result().expect("no point fails");
        let direct = p.run(&o.spec).expect("direct run");
        assert_eq!(r.label, direct.label);
        assert_eq!(r.sim_cycles, direct.sim_cycles, "{}", r.label);
        assert_eq!(r.wcet_cycles, direct.wcet_cycles, "{}", r.label);
        assert_eq!(r.spm_objects, direct.spm_objects, "{}", r.label);
    }
}

#[test]
fn prep_phase_faults_surface_from_pipeline_construction() {
    // `compile` and the baseline `link` run once, before any sweep point
    // exists — their faults surface as a typed construction error, still
    // never a process abort.
    for phase in ["compile", "link"] {
        let guard = arm(FaultPlan::new(phase, 1, FaultAction::Error));
        let err = match Pipeline::new(&INSERTSORT) {
            Ok(_) => panic!("phase `{phase}`: construction must fail"),
            Err(e) => e,
        };
        assert!(guard.fired(), "phase `{phase}` was reached");
        drop(guard);
        assert!(
            matches!(err, CoreError::Injected(_)),
            "phase `{phase}`: {err}"
        );
    }
}

#[test]
fn delays_do_not_fail_points() {
    let guard = arm(inert());
    let p = Pipeline::new(&INSERTSORT).expect("pipeline");
    guard.rearm(FaultPlan::new(
        "measure-spec",
        1,
        FaultAction::Delay(Duration::from_millis(20)),
    ));
    let points = spec_sweep(&p, &small_axis()).expect("a slow point is not a failed point");
    assert!(guard.fired());
    assert_eq!(points.len(), 3);
}

#[test]
fn faulted_checkpoints_record_failures_and_resume_to_completion() {
    // The small-axis version of the G.721 scenario below, checking the
    // checkpoint *contents* around a fault: failed points are recorded
    // (never silently dropped), the strict gate reports the stream as
    // incomplete, and a resume re-measures exactly the failed points.
    let guard = arm(inert());
    let p = Pipeline::new(&INSERTSORT).expect("pipeline");
    let specs = small_axis();
    let header = CheckpointHeader::new("testrev", "insertsort", &specs);
    let path = scratch("faulted.jsonl");

    let session = SweepSession::checkpoint_to(&path, &header).unwrap();
    guard.rearm(FaultPlan::new("measure-spec", 2, FaultAction::Error));
    let outcomes = spec_sweep_with_session(&p, &specs, &session).expect("sweep survives");
    assert!(guard.fired());
    guard.rearm(inert());
    drop(session);
    let n_failed = outcomes.iter().filter(|o| o.outcome.is_failed()).count();
    assert_eq!(n_failed, 1);

    let text = std::fs::read_to_string(&path).unwrap();
    let stats = check_checkpoint(&text).expect("the faulted stream still validates");
    assert_eq!(stats.failed, 1, "the failure is in the checkpoint");
    assert_eq!(stats.covered, stats.points, "every point has a record");

    let resumed = SweepSession::resume_from(&path, &header).unwrap();
    assert_eq!(
        resumed.resumed_points(),
        2,
        "completed points are reused; the failed one is re-measured"
    );
    let replay = spec_sweep_with_session(&p, &specs, &resumed).expect("resume completes");
    drop(resumed);
    assert!(replay.iter().all(|o| o.outcome.result().is_some()));
    let text = std::fs::read_to_string(&path).unwrap();
    let stats = check_checkpoint(&text).expect("the resumed stream validates");
    assert_eq!(
        stats.failed, 0,
        "the re-measured point supersedes its failure"
    );
    assert_eq!(stats.covered, stats.points);
    std::fs::remove_file(&path).ok();
}

#[test]
fn interrupted_g721_hierarchy_resumes_byte_identically() {
    // The paper's eight-config G.721 hierarchy grid, swept on the
    // `experiments sweep` path into its unsharded stream, interrupted by an
    // injected fault and resumed: the figure rendered from the stream must
    // give the byte-identical JSON artifact of an uninterrupted run.
    let ck_full = scratch("g721-full.jsonl");
    let ck_cut = scratch("g721-cut.jsonl");
    // `SweepSession::open` resumes an existing stream: start from none.
    for path in [&ck_full, &ck_cut] {
        std::fs::remove_file(path).ok();
    }
    let grid = experiment("hierarchy").unwrap().grid(false).unwrap();
    let (axis, _) = grid.axis().unwrap();
    let bench = grid_benchmark(&grid).unwrap();
    let header = shard_header("test-rev", &bench.name, &axis, Shard::single());
    // The figure rendered from the stream, and its JSON artifact.
    let hierarchy_figure =
        |path: &std::path::Path| -> Result<(FigureHierarchy, String), CoreError> {
            let session = SweepSession::open(path, &header)?;
            sweep_axis(bench, &axis, Shard::single(), &session)?;
            drop(session);
            let stream = merge_texts(&[&std::fs::read_to_string(path).unwrap()]).unwrap();
            let outcomes = stream.outcomes(&bench.name, &axis).unwrap();
            let json = artifact_json(&bench.name, &outcomes, None);
            Ok((FigureHierarchy::new(&bench.name, outcomes), json))
        };

    // Uninterrupted reference run. The armed-but-inert plan holds the
    // harness lock so no concurrent test can fault this sweep.
    let reference = {
        let _serial = arm(FaultPlan::new("no-such-phase", 1, FaultAction::Error));
        let (fig, json) = hierarchy_figure(&ck_full).expect("reference run");
        assert!(fig.failed.is_empty());
        json
    };

    // Faulted run: one measurement dies mid-sweep.
    {
        let guard = arm(FaultPlan::new("measure-spec", 3, FaultAction::Error));
        let (fig, json) = hierarchy_figure(&ck_cut).expect("faulted run survives");
        assert!(guard.fired());
        assert!(
            !fig.failed.is_empty(),
            "the fault is reported in the figure"
        );
        assert!(!fig.all_sound(), "a failed point fails the soundness claim");
        assert!(json.contains("\"failed\""), "and in the JSON artifact");
        assert!(
            json.contains("\"sound\": false"),
            "which fails its soundness too"
        );
    }

    // Resume without the fault: missing points re-measure, reused points
    // come back bit-identical, and the merged figure matches the
    // uninterrupted reference byte for byte.
    let resumed = {
        let _serial = arm(FaultPlan::new("no-such-phase", 1, FaultAction::Error));
        let cut = check_checkpoint(&std::fs::read_to_string(&ck_cut).unwrap()).expect("valid");
        assert!(cut.ok > 0, "completed points are there to reuse");
        let (fig, json) = hierarchy_figure(&ck_cut).expect("resume completes");
        assert!(fig.failed.is_empty(), "resume heals the failed points");
        json
    };
    assert_eq!(
        reference, resumed,
        "resumed == uninterrupted, byte for byte"
    );

    // Both checkpoint streams pass the strict completeness gate.
    for path in [&ck_full, &ck_cut] {
        let stats = check_checkpoint(&std::fs::read_to_string(path).unwrap()).expect("valid");
        assert_eq!(stats.covered, stats.points, "{}", path.display());
        assert_eq!(stats.failed, 0, "{}", path.display());
        std::fs::remove_file(path).ok();
    }
}
