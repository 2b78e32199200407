//! The WCET-aware allocator's trial memo, pinned against what it rests on
//! and against what it replaces:
//!
//! - every assignment the `spm-alloc` greedies trial links to the same
//!   image and bounds the same at every capacity it fits, and the memo's
//!   fit rule rejects exactly the assignments the linker rejects;
//! - greedies run through one shared memo, in the pipeline's order, return
//!   the allocations of a reference greedy that links and analyses every
//!   trial afresh;
//! - the `experiments --quick hierarchy-spm` report (placements and
//!   bounds) is byte-identical to the checked-in golden file.

mod common;

use common::{objectives, programs, reference_greedy, reference_hierarchy_aware, CAPACITIES};
use spmlab_alloc::wcet_aware::{TrialMemo, WcetAllocation};
use spmlab_cc::{link, spm_end, ObjModule, SpmAssignment};
use spmlab_isa::mem::MemoryMap;
use spmlab_wcet::{analyze, WcetConfig};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// One program's reference allocations and the trials behind them.
struct Reference {
    name: String,
    module: ObjModule,
    /// Per capacity: the region-timing greedy, then the hierarchy-aware
    /// portfolio under each of the other three [`objectives`].
    allocations: Vec<(WcetAllocation, Vec<WcetAllocation>)>,
    /// Every assignment some trial linked and analysed.
    trialled: BTreeSet<Vec<String>>,
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
                        let mut log = Vec::new();
                        let allocations = CAPACITIES
                            .iter()
                            .map(|&c| {
                                let region = reference_greedy(
                                    &module,
                                    c,
                                    &WcetConfig::region_timing(),
                                    &mut log,
                                )
                                .unwrap();
                                let aware = objectives[1..]
                                    .iter()
                                    .map(|obj| {
                                        reference_hierarchy_aware(
                                            &module,
                                            c,
                                            obj,
                                            &region.assignment,
                                            &mut log,
                                        )
                                        .unwrap()
                                    })
                                    .collect();
                                (region, aware)
                            })
                            .collect();
                        let trialled = log
                            .into_iter()
                            .map(|(_, a)| a.iter().map(str::to_string).collect())
                            .collect();
                        Reference {
                            name,
                            module,
                            allocations,
                            trialled,
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
                    .allocate_hierarchy_aware(&r.module, c, &none, obj, Some(&region.assignment))
                    .unwrap();
                assert_eq!(&got, want, "{} at {c} B under {obj:?}", r.name);
            }
        }
        let (hits, misses) = memo.take_counts();
        assert!(hits > 0, "{}: {hits} hits, {misses} misses", r.name);
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
