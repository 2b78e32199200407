//! Differential suite for the `MemArchSpec` run API: `Pipeline::run`
//! must keep returning **byte-identical** `sim_cycles`/`wcet_cycles` for
//! every point of the standard G.721 axes (hierarchy, SPM, cache,
//! SPM-over-DRAM), pinned as golden numbers.
//!
//! Provenance of the pins:
//!
//! * `sim_cycles` — unchanged since the seed (commit `7443bc9`): the
//!   simulator is not touched by analyzer work.
//! * SPM and cache `wcet_cycles` — unchanged since the seed: region
//!   timing and the paper's MUST-only analysis (now the multi-level
//!   analyzer's paper mode) reproduce them exactly.
//! * hierarchy `wcet_cycles` — re-captured after the interprocedural
//!   MAY/CAC upgrade, which tightened every multi-level point. The seed's
//!   bounds are retained in [`GOLDEN_HIERARCHY_SEED_WCET`];
//!   [`hierarchy_axis_never_looser_than_seed`] proves the new pins are
//!   ≤ the seed's at every point, and
//!   [`baseline_flags_reproduce_seed_bounds`] proves the pre-MAY baseline
//!   (`WcetConfig::with_hierarchy_baseline`) still reproduces the seed's
//!   numbers exactly — so the upgrade is a pure, measured tightening.
//!
//! (The validation layer's proptest suite lives with the spec type in
//! `spmlab-isa::archspec`; this file exercises the pipeline.)

use spmlab::pipeline::Pipeline;
use spmlab::{hierarchy_axis, MainMemoryTiming, MemArchSpec, MemHierarchyConfig, PAPER_SIZES};
use spmlab_isa::cachecfg::CacheConfig;
use spmlab_workloads::G721;
use std::sync::OnceLock;

/// One shared G.721 pipeline — the prepare step (compile, link, baseline
/// interpretation) is the expensive part and identical for every test.
fn pipeline() -> &'static Pipeline {
    static PIPELINE: OnceLock<Pipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| Pipeline::new(&G721).unwrap())
}

/// `(label, sim_cycles, wcet_cycles)` of the G.721 hierarchy axis
/// (`hierarchy_axis(1024)`), captured from the interprocedural MAY/CAC
/// analysis. The bare unified L1 routes to paper mode (the baseline
/// flags), so its bound matches `GOLDEN_CACHE` at 1024 exactly.
const GOLDEN_HIERARCHY: [(&str, u64, u64); 6] = [
    ("l1 1024", 7_786_981, 27_571_788),
    ("l1i512+l1d512", 7_421_781, 27_503_436),
    ("l1i512+l1d512+l2 4096", 6_388_137, 55_831_420),
    ("l1i512+l1d512+l2 16384", 6_337_449, 55_692_060),
    ("l1i512+l1d512+l2 4096 (dram 10+2x2)", 8_639_877, 70_874_190),
    ("l1i 1024+l2 16384", 7_411_155, 47_173_103),
];

/// The seed's (pre-MAY, per-function-TOP) hierarchy bounds, captured from
/// commit `7443bc9` — kept to prove the upgrade never loosened a point
/// and to pin the baseline analysis path.
const GOLDEN_HIERARCHY_SEED_WCET: [u64; 6] = [
    27_571_788, 27_763_788, 57_215_932, 57_215_932, 72_655_522, 48_559_695,
];

/// `(size, sim_cycles, wcet_cycles)` of the G.721 scratchpad axis,
/// captured from the seed implementation (region timing — unchanged).
const GOLDEN_SPM: [(u32, u64, u64); 8] = [
    (64, 8_378_278, 10_820_728),
    (128, 8_211_097, 10_556_536),
    (256, 8_097_278, 10_507_896),
    (512, 7_763_850, 10_076_277),
    (1024, 7_665_254, 9_945_438),
    (2048, 7_178_505, 9_454_200),
    (4096, 6_955_474, 9_192_286),
    (8192, 6_955_474, 9_192_286),
];

/// `(size, sim_cycles, wcet_cycles)` of the G.721 unified-cache axis,
/// captured from the seed implementation (the paper's MUST-only
/// analysis — unchanged since, now run as the multi-level analyzer's
/// paper mode).
const GOLDEN_CACHE: [(u32, u64, u64); 8] = [
    (64, 18_429_877, 40_495_708),
    (128, 14_606_117, 40_143_436),
    (256, 12_091_573, 38_109_772),
    (512, 9_100_533, 28_806_732),
    (1024, 7_786_981, 27_571_788),
    (2048, 6_610_437, 27_395_628),
    (4096, 5_507_909, 27_305_516),
    (8192, 5_490_853, 27_301_420),
];

/// `(label, sim_cycles, wcet_cycles)` of the SPM-1024 points over both
/// main-memory timings, captured from the seed implementation.
const GOLDEN_SPM_MAINS: [(&str, u64, u64); 2] = [
    ("spm 1024", 7_665_254, 9_945_438),
    ("spm 1024 (dram 10)", 20_504_514, 24_924_148),
];

#[test]
fn g721_hierarchy_axis_matches_golden() {
    let p = pipeline();
    for (h, &(label, sim, wcet)) in hierarchy_axis(1024).iter().zip(&GOLDEN_HIERARCHY) {
        let spec = MemArchSpec::from_hierarchy(h);
        let r = p.run(&spec).unwrap();
        assert_eq!(r.label, label);
        assert_eq!(r.sim_cycles, sim, "{label}: sim drifted");
        assert_eq!(r.wcet_cycles, wcet, "{label}: wcet drifted");
    }
}

#[test]
fn hierarchy_axis_never_looser_than_seed() {
    for (&(label, _, wcet), &seed) in GOLDEN_HIERARCHY.iter().zip(&GOLDEN_HIERARCHY_SEED_WCET) {
        assert!(
            wcet <= seed,
            "{label}: the MAY/CAC analysis pins ({wcet}) must not exceed the seed's ({seed})"
        );
    }
}

/// The pre-MAY baseline flags reproduce the seed's multi-level bounds
/// exactly — the analyzer upgrade is switchable, measured, and did not
/// disturb the code path it is compared against.
#[test]
fn baseline_flags_reproduce_seed_bounds() {
    use spmlab_cc::SpmAssignment;
    use spmlab_isa::mem::MemoryMap;
    use spmlab_wcet::{analyze, WcetConfig};
    let module = G721.compile().unwrap();
    let input = G721.typical_input();
    let linked = G721
        .link_with_input(
            &module,
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
            &input,
        )
        .unwrap();
    // The first axis point, the bare unified L1, is the pipeline's paper
    // mode: these same baseline flags, so its seed pin is reproduced too.
    for (h, &seed) in hierarchy_axis(1024).iter().zip(&GOLDEN_HIERARCHY_SEED_WCET) {
        let base = analyze(
            &linked.exe,
            &WcetConfig::with_hierarchy_baseline(h.clone()),
            &linked.annotations,
        )
        .unwrap();
        assert_eq!(
            base.wcet_cycles,
            seed,
            "{}: baseline flags no longer reproduce the seed bound",
            h.label()
        );
    }
}

#[test]
fn g721_spm_axis_matches_golden() {
    let p = pipeline();
    assert_eq!(PAPER_SIZES.len(), GOLDEN_SPM.len());
    for &(size, sim, wcet) in &GOLDEN_SPM {
        let r = p.run(&MemArchSpec::spm(size)).unwrap();
        assert_eq!(r.sim_cycles, sim, "spm {size}: sim drifted from seed");
        assert_eq!(r.wcet_cycles, wcet, "spm {size}: wcet drifted from seed");
        assert_eq!(r.label, format!("spm {size}"));
    }
}

#[test]
fn g721_cache_axis_matches_golden() {
    let p = pipeline();
    for &(size, sim, wcet) in &GOLDEN_CACHE {
        let spec = MemArchSpec::single_cache(CacheConfig::unified(size));
        let r = p.run(&spec).unwrap();
        assert_eq!(r.sim_cycles, sim, "cache {size}: sim drifted from seed");
        assert_eq!(r.wcet_cycles, wcet, "cache {size}: wcet drifted from seed");
    }
}

#[test]
fn g721_spm_over_mains_matches_golden() {
    let p = pipeline();
    let mains = [MainMemoryTiming::table1(), MainMemoryTiming::dram(10)];
    for (&main, &(label, sim, wcet)) in mains.iter().zip(&GOLDEN_SPM_MAINS) {
        let r = p
            .run(&MemArchSpec {
                main,
                ..MemArchSpec::spm(1024)
            })
            .unwrap();
        assert_eq!(r.label, label);
        assert_eq!(r.sim_cycles, sim, "{label}: sim drifted from seed");
        assert_eq!(r.wcet_cycles, wcet, "{label}: wcet drifted from seed");
    }
}

#[test]
fn baseline_and_fixed_assignment_specs_work() {
    use spmlab_isa::archspec::SpmAllocation;
    let p = pipeline();
    let base = p.run(&MemArchSpec::uncached()).unwrap();
    assert!(base.wcet_cycles >= base.sim_cycles);

    // A Fixed allocation reproduces the knapsack pick it was copied from.
    let knapsack = p.run(&MemArchSpec::spm(1024)).unwrap();
    let picks = knapsack.spm_objects.clone();
    assert!(picks.len() >= 2, "knapsack picked {picks:?}");
    let fixed = p
        .run(&MemArchSpec::spm_with(
            1024,
            SpmAllocation::Fixed(picks.clone()),
        ))
        .unwrap();
    assert_eq!(fixed.sim_cycles, knapsack.sim_cycles);
    assert_eq!(fixed.wcet_cycles, knapsack.wcet_cycles);
    assert_eq!(fixed.spm_objects, picks);
}

/// The write-policy axis joined the spec vocabulary without disturbing a
/// single write-through number: explicitly-write-through specs
/// canonicalise to the same machine as the pre-policy defaults and cost
/// byte-identically to the seed pins, while write-back twins are distinct
/// machines that stay sound.
#[test]
fn write_through_specs_cost_byte_identically_to_seed() {
    use spmlab_isa::cachecfg::WritePolicy;
    let p = pipeline();
    // Explicit write-through == the default (the seed's implicit policy):
    // same canonical form, same golden numbers.
    let mut explicit = CacheConfig::unified(1024);
    explicit.write_policy = WritePolicy::WriteThrough;
    let spec = MemArchSpec::single_cache(explicit);
    assert_eq!(
        spec.canonical(),
        MemArchSpec::single_cache(CacheConfig::unified(1024)).canonical()
    );
    let r = p.run(&spec).unwrap();
    let (_, sim, wcet) = GOLDEN_CACHE[4]; // the 1024-byte pin
    assert_eq!(
        r.sim_cycles, sim,
        "explicit write-through drifted from seed"
    );
    assert_eq!(r.wcet_cycles, wcet);
    // The write-back twin is a different machine: distinct label, sound
    // result, and a *tighter or equal* simulated store path is not
    // guaranteed — only soundness is.
    let wb = p
        .run(&MemArchSpec::single_cache(
            CacheConfig::unified(1024).write_back(),
        ))
        .unwrap();
    assert_eq!(wb.label, "l1 1024-wb");
    assert!(wb.wcet_cycles >= wb.sim_cycles);
    assert_ne!(wb.sim_cycles, sim, "write-back must change store timing");
}

/// A store-buffered machine runs through the full pipeline (no trace
/// replay — the trace is write-through) and stays sound; the unbuffered
/// uncached numbers are untouched.
#[test]
fn store_buffered_spec_is_sound_and_leaves_baseline_pinned() {
    use spmlab_isa::hierarchy::StoreBuffer;
    let p = pipeline();
    let base = p.run(&MemArchSpec::uncached()).unwrap();
    let sb = p
        .run(&MemArchSpec {
            main: MainMemoryTiming::table1().with_store_buffer(StoreBuffer::new(4, 6)),
            ..MemArchSpec::uncached()
        })
        .unwrap();
    assert!(sb.wcet_cycles >= sb.sim_cycles);
    assert!(
        sb.sim_cycles < base.sim_cycles,
        "buffered stores must be faster on G.721 ({} vs {})",
        sb.sim_cycles,
        base.sim_cycles
    );
    assert_eq!(sb.label, "uncached (sb 4x6)");
}

#[test]
fn persistence_spec_tightens_must_only() {
    let p = pipeline();
    let cache = CacheConfig::unified(1024);
    let pers = p
        .run(&MemArchSpec {
            persistence: true,
            ..MemArchSpec::single_cache(cache.clone())
        })
        .unwrap();
    let must_only = p.run(&MemArchSpec::single_cache(cache)).unwrap();
    assert!(pers.wcet_cycles <= must_only.wcet_cycles);
    assert!(pers.wcet_cycles >= pers.sim_cycles);
}

/// The cache geometries of a DSE grid, each with its main-timing family:
/// main latency {0, 10, 40} × store buffer {none, depth 4 / drain 8}.
/// Members of one family differ only in what the costing pass reads.
fn timing_families(grid: spmlab::GridSpec) -> Vec<Vec<MemHierarchyConfig>> {
    use spmlab_isa::hierarchy::StoreBuffer;
    let grid = spmlab::GridSpec {
        main_latencies: vec![0, 10, 40],
        store_buffers: vec![None, Some(StoreBuffer::new(4, 8))],
        ..grid
    };
    let mut families: Vec<(MemHierarchyConfig, Vec<MemHierarchyConfig>)> = Vec::new();
    for spec in grid.axis().expect("valid grid").0 {
        let h = spec.hierarchy();
        let untimed = MemHierarchyConfig {
            main: MainMemoryTiming::table1(),
            ..h.clone()
        };
        match families.iter_mut().find(|(g, _)| *g == untimed) {
            Some((_, members)) => members.push(h),
            None => families.push((untimed, vec![h])),
        }
    }
    families.into_iter().map(|(_, members)| members).collect()
}

/// Every cache geometry of the write-through (`dse-wt`) and write-back
/// (`dse-wb`) DSE grids, write-back L1/L2 stacks included.
fn dse_families() -> &'static [Vec<MemHierarchyConfig>] {
    use spmlab::dse::L1Shape;
    use spmlab_isa::cachecfg::WritePolicy;
    static FAMILIES: OnceLock<Vec<Vec<MemHierarchyConfig>>> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        let base = spmlab::GridSpec {
            l1_shapes: vec![L1Shape::Unified, L1Shape::Split],
            l2_sizes: vec![0, 4096, 16384],
            ..spmlab::GridSpec::default()
        };
        let wt = spmlab::GridSpec {
            l1_sizes: vec![0, 256, 1024, 4096],
            ..base.clone()
        };
        let wb = spmlab::GridSpec {
            l1_sizes: vec![256, 1024, 4096],
            l1_policies: vec![WritePolicy::WriteBack],
            l2_policies: vec![WritePolicy::WriteBack],
            ..base
        };
        let mut families = timing_families(wt);
        families.extend(timing_families(wb));
        assert_eq!(families.len(), 21 + 18, "dse-wt and dse-wb geometries");
        assert!(families.iter().all(|f| f.len() == 6), "six timings each");
        families
    })
}

/// The staged analysis is exact under sharing: for every geometry, `cost`
/// over one `classify` of the family's first member, on one IPET model
/// store for every geometry, returns, for every member, the `WcetResult`
/// a fresh `analyze` returns.
fn assert_shared_classification_is_exact(name: &str, linked: &spmlab_cc::LinkedProgram) {
    use spmlab_wcet::{analyze, classify, cost, prepare, IpetModels, WcetConfig};
    let (exe, annot) = (&linked.exe, &linked.annotations);
    let prepared = prepare(exe, annot, true).expect("prepare");
    let models = IpetModels::new();
    for family in dse_families() {
        let shared = classify(
            &prepared,
            exe,
            &WcetConfig::with_hierarchy(family[0].clone()),
        );
        for h in family {
            let config = WcetConfig::with_hierarchy(h.clone());
            assert!(shared.serves(&config), "{name}: {h:?}");
            assert_eq!(
                cost(&prepared, exe, &config, &shared, &models),
                analyze(exe, &config, annot),
                "{name}: {h:?}"
            );
        }
    }
}

fn no_spm_link(bench: &spmlab_workloads::Benchmark) -> spmlab_cc::LinkedProgram {
    let module = bench.compile().unwrap();
    bench
        .link_with_input(
            &module,
            &spmlab_isa::mem::MemoryMap::no_spm(),
            &spmlab_cc::SpmAssignment::none(),
            &bench.typical_input(),
        )
        .unwrap()
}

#[test]
fn g721_shared_classification_costs_like_fresh_analysis() {
    assert_shared_classification_is_exact("g721", &no_spm_link(&G721));
}

#[test]
fn adpcm_shared_classification_costs_like_fresh_analysis() {
    assert_shared_classification_is_exact("adpcm", &no_spm_link(&spmlab_workloads::ADPCM));
}

#[test]
fn corpus_shared_classification_costs_like_fresh_analysis() {
    use spmlab_workloads::gen;
    for seed in spmlab_bench::fuzz::CORPUS_SEEDS {
        let program = gen::generate_for_seed(seed, &gen::reference_arch());
        let linked = no_spm_link(&program.benchmark());
        assert_shared_classification_is_exact(&program.name(), &linked);
    }
}
