//! The WCET-aware allocator's trial memo, pinned against what it rests on
//! and against what it replaces:
//!
//! - every assignment the `spm-alloc` greedies trial links to the same
//!   image and bounds the same at every capacity it fits, and the memo's
//!   fit rule rejects exactly the assignments the linker rejects;
//! - greedies run through one shared memo, in the pipeline's order, return
//!   the allocations of a reference greedy that links and analyses every
//!   trial afresh, and greedies that name their latency twins do so while
//!   classifying each trial once per classification key;
//! - every trialled link's analysis preparation, relocated from the
//!   no-scratchpad link's as the memo relocates it, equals a fresh one;
//! - the `experiments --quick hierarchy-spm` report (placements and
//!   bounds) is byte-identical to the checked-in golden file.

mod common;

use common::{objectives, programs, reference_greedy, reference_hierarchy_aware, CAPACITIES};
use spmlab_alloc::wcet_aware::{TrialMemo, WcetAllocation};
use spmlab_cc::{link, spm_end, ObjModule, SpmAssignment};
use spmlab_isa::annot::AnnotationSet;
use spmlab_isa::mem::MemoryMap;
use spmlab_obs::collector::MemorySink;
use spmlab_wcet::{analyze, prepare, WcetConfig};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// One program's reference allocations and the trials behind them.
struct Reference {
    name: String,
    module: ObjModule,
    /// Per capacity: the region-timing greedy, then the hierarchy-aware
    /// portfolio under each of the other three [`objectives`].
    allocations: Vec<(WcetAllocation, Vec<WcetAllocation>)>,
    /// Every assignment some trial linked and analysed.
    trialled: BTreeSet<Vec<String>>,
    /// Every trial that linked, as (index into [`objectives`], the map has
    /// a scratchpad, assignment).
    trials: BTreeSet<(usize, bool, Vec<String>)>,
}

/// The per-trial reference over every program × capacity × objective,
/// computed once per test binary (one thread per program).
fn reference() -> &'static [Reference] {
    static REFERENCE: OnceLock<Vec<Reference>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let objectives = objectives();
        std::thread::scope(|scope| {
            let runs: Vec<_> = programs()
                .into_iter()
                .map(|(name, module)| {
                    let objectives = &objectives;
                    scope.spawn(move || {
                        let mut trials: BTreeSet<(usize, bool, Vec<String>)> = BTreeSet::new();
                        let mut record = |o: usize, log: Vec<(u32, SpmAssignment)>| {
                            for (c, a) in log {
                                trials.insert((o, c > 0, a.iter().map(str::to_string).collect()));
                            }
                        };
                        let allocations = CAPACITIES
                            .iter()
                            .map(|&c| {
                                let mut log = Vec::new();
                                let region = reference_greedy(
                                    &module,
                                    c,
                                    &WcetConfig::region_timing(),
                                    &mut log,
                                )
                                .unwrap();
                                record(0, log);
                                let aware = (1..objectives.len())
                                    .map(|o| {
                                        let mut log = Vec::new();
                                        let aware = reference_hierarchy_aware(
                                            &module,
                                            c,
                                            &objectives[o],
                                            &region.assignment,
                                            &mut log,
                                        )
                                        .unwrap();
                                        record(o, log);
                                        aware
                                    })
                                    .collect();
                                (region, aware)
                            })
                            .collect();
                        let trialled = trials.iter().map(|(_, _, a)| a.clone()).collect();
                        Reference {
                            name,
                            module,
                            allocations,
                            trialled,
                            trials,
                        }
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        })
    })
}

#[test]
fn memoised_greedies_equal_the_per_trial_reference() {
    let objectives = objectives();
    for r in reference() {
        // One memo for the whole program, as the pipeline keeps one.
        let memo = TrialMemo::new();
        let none = Default::default();
        for (&c, (region_ref, aware_ref)) in CAPACITIES.iter().zip(&r.allocations) {
            let region = memo
                .allocate_with(&r.module, c, &none, &WcetConfig::region_timing())
                .unwrap();
            assert_eq!(&region, region_ref, "{} region greedy at {c} B", r.name);
            for (obj, want) in objectives[1..].iter().zip(aware_ref) {
                let got = memo
                    .allocate_hierarchy_aware(
                        &r.module,
                        c,
                        &none,
                        obj,
                        &[],
                        Some(&region.assignment),
                    )
                    .unwrap();
                assert_eq!(&got, want, "{} at {c} B under {obj:?}", r.name);
            }
        }
        let (hits, misses) = memo.take_counts();
        assert!(hits > 0, "{}: {hits} hits, {misses} misses", r.name);
    }
}

/// The 1 KiB-L1 objectives at main latency 0 and 10 classify alike. Run
/// through one memo as each other's twins, beside the region-timing
/// greedy, their greedies return the per-trial reference's allocations,
/// and a trial misses once per distinct (assignment, classification key,
/// map has a scratchpad) among the reference's trials under the three
/// objectives: every trial one twin linked and classified is costed for
/// the other. Debug builds re-check each hit by classifying afresh under
/// its own objective, so every twin-costed bound a greedy used is checked.
#[test]
fn twin_greedies_classify_each_trial_once() {
    let objectives = objectives();
    let twins = &objectives[2..];
    assert_eq!(twins[0].classification_key(), twins[1].classification_key());
    assert_ne!(twins[0], twins[1]);
    for r in reference() {
        let memo = TrialMemo::new();
        let none = Default::default();
        for (&c, (region_ref, aware_ref)) in CAPACITIES.iter().zip(&r.allocations) {
            let region = memo
                .allocate_with(&r.module, c, &none, &objectives[0])
                .unwrap();
            assert_eq!(&region, region_ref, "{} region greedy at {c} B", r.name);
            for (obj, want) in twins.iter().zip(&aware_ref[1..]) {
                let got = memo
                    .allocate_hierarchy_aware(
                        &r.module,
                        c,
                        &none,
                        obj,
                        twins,
                        Some(&region.assignment),
                    )
                    .unwrap();
                assert_eq!(&got, want, "{} at {c} B under {obj:?}", r.name);
            }
        }
        let classified: BTreeSet<(String, bool, &Vec<String>)> = r
            .trials
            .iter()
            .filter(|(o, ..)| *o != 1)
            .map(|(o, spm, a)| {
                (
                    format!("{:?}", objectives[*o].classification_key()),
                    *spm,
                    a,
                )
            })
            .collect();
        let (hits, misses) = memo.take_counts();
        assert_eq!(misses, classified.len() as u64, "{}: {hits} hits", r.name);
    }
}

#[test]
fn trialled_assignments_are_capacity_independent() {
    let objectives = objectives();
    std::thread::scope(|scope| {
        for r in reference() {
            let objectives = &objectives;
            scope.spawn(move || capacity_independent(r, objectives));
        }
    });
}

/// For every assignment `r`'s greedies trialled: it links at exactly the
/// capacities the memo's fit rule admits, to one image up to the map's
/// `spm_size`, with one bound per objective.
fn capacity_independent(r: &Reference, objectives: &[WcetConfig]) {
    let memo = TrialMemo::new();
    for names in &r.trialled {
        let assignment = SpmAssignment::of(names);
        let mut first: Option<(spmlab_cc::LinkedProgram, Vec<u64>)> = None;
        for &c in &CAPACITIES {
            let linked = link(&r.module, &MemoryMap::with_spm(c), &assignment);
            let fits = memo.fits(&r.module, &assignment, c);
            assert_eq!(
                linked.is_ok(),
                fits,
                "{}: {names:?} at {c} B (layout ends at {})",
                r.name,
                spm_end(&r.module, &assignment)
            );
            let Ok(mut linked) = linked else { continue };
            let bounds: Vec<u64> = objectives
                .iter()
                .map(|obj| {
                    analyze(&linked.exe, obj, &linked.annotations)
                        .unwrap()
                        .wcet_cycles
                })
                .collect();
            match &first {
                None => first = Some((linked, bounds)),
                Some((image, want)) => {
                    assert_eq!(&bounds, want, "{}: {names:?} bounds at {c} B", r.name);
                    linked.exe.memory_map.spm_size = image.exe.memory_map.spm_size;
                    assert_eq!(
                        linked.exe, image.exe,
                        "{}: {names:?} image at {c} B",
                        r.name
                    );
                    assert_eq!(
                        linked.annotations, image.annotations,
                        "{}: {names:?} annotations at {c} B",
                        r.name
                    );
                }
            }
        }
        assert!(
            first.is_some(),
            "{}: {names:?} was trialled, so it fits",
            r.name
        );
    }
}

#[test]
fn relocated_preparations_equal_fresh_ones() {
    let _x = spmlab_obs::exclusive();
    std::thread::scope(|scope| {
        for r in reference() {
            scope.spawn(move || relocations_exact(r));
        }
    });
}

/// For every assignment `r`'s greedies trialled, at every capacity it
/// fits, with its link's annotations and with extra loop totals merged
/// in: the no-scratchpad link's preparation relocated to it equals a fresh
/// preparation, and no relocation falls back to preparing.
fn relocations_exact(r: &Reference) {
    let base = link(&r.module, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
    let source = prepare(&base.exe, &base.annotations).unwrap();
    let sink = Arc::new(MemorySink::default());
    let guard = spmlab_obs::add_sink(sink.clone());
    let outer = spmlab_obs::span("relocations");
    let mut relocations = 0;
    for names in &r.trialled {
        for &c in &CAPACITIES {
            let Ok(linked) = link(
                &r.module,
                &MemoryMap::with_spm(c),
                &SpmAssignment::of(names),
            ) else {
                continue;
            };
            let mut extra = AnnotationSet::new();
            for b in linked.annotations.loop_bounds() {
                extra.set_loop_total(b.header_addr, b.max_iterations);
            }
            let mut merged = linked.annotations.clone();
            merged.merge_from(&extra);
            for ann in [&linked.annotations, &merged] {
                relocations += 1;
                assert_eq!(
                    source.relocate(&linked.exe, ann),
                    prepare(&linked.exe, ann),
                    "{}: {names:?} at {c} B",
                    r.name
                );
            }
        }
    }
    let id = outer.id();
    drop(outer);
    drop(guard);
    let spans = sink.spans();
    let tid = spans.iter().find(|s| Some(s.id) == id).map(|s| s.tid);
    let count = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name && Some(s.tid) == tid)
            .count()
    };
    assert!(relocations > CAPACITIES.len(), "{}", r.name);
    assert_eq!(count("wcet-pass-relocate"), relocations, "{}", r.name);
    assert_eq!(
        count("wcet-pass-prepare"),
        relocations,
        "{}: only the fresh preparations prepare",
        r.name
    );
}

#[test]
fn quick_hierarchy_spm_report_matches_golden() {
    // `experiments --quick hierarchy-spm` prints a header line, the
    // report, and a blank line.
    let report = spmlab_bench::experiment("hierarchy-spm")
        .unwrap()
        .run(true)
        .unwrap();
    let stdout = format!("==== hierarchy-spm ====\n{report}\n");
    assert_eq!(stdout, include_str!("hierarchy_spm_quick.stdout"));
}
