//! Pinned bounds of the paper's two analysis setups over the six kernels
//! and the twelve corpus programs:
//!
//! * the single-level cache setup: a MUST-only analysis of one L1 (the
//!   ARM7/aiT configuration), optionally with the persistence
//!   (first-miss) extension, × a set of single-cache geometries;
//! * the scratchpad setup, region timing with no cache in the path (the
//!   uncached hierarchy): the no-scratchpad link under Table-1 and DRAM
//!   (latency 10) main memory, and the knapsack-allocated 256 B and
//!   1024 B scratchpad links under Table-1.
//!
//! Each row of `tests/paper_mode_golden.tsv` records one analysis:
//! `wcet_cycles`, the `ClassifyStats` wire array and an FNV-1a digest of
//! the per-address `Classification` sets.
//!
//! * MUST-only and region rows must reproduce exactly.
//! * `+persistence` rows may only tighten: the bound must be ≤ the pinned
//!   one and ≤ the MUST-only bound of the same program and geometry
//!   (persistence must never loosen the analysis).
//!
//! After an intentional analysis change, rerun with
//! `SPMLAB_BLESS_PAPER_MODE=1 cargo test --test paper_mode_golden` and
//! review the diff.

use spmlab::Pipeline;
use spmlab_alloc::energy::EnergyModel;
use spmlab_alloc::knapsack;
use spmlab_cc::{LinkedProgram, SpmAssignment};
use spmlab_isa::cachecfg::{CacheConfig, Replacement};
use spmlab_isa::hierarchy::MainMemoryTiming;
use spmlab_isa::mem::MemoryMap;
use spmlab_wcet::cache::Classification;
use spmlab_wcet::{analyze, WcetConfig, WcetResult};
use spmlab_workloads::{gen, Benchmark};
use std::collections::BTreeMap;
use std::path::PathBuf;

const SIZES: [u32; 4] = [64, 256, 1024, 4096];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/paper_mode_golden.tsv")
}

/// Every pinned program: the six kernels, then the corpus seeds.
fn programs() -> Vec<Benchmark> {
    let mut out: Vec<_> = spmlab_workloads::all_benchmarks()
        .into_iter()
        .cloned()
        .collect();
    for seed in spmlab_bench::fuzz::CORPUS_SEEDS {
        out.push(gen::generate_for_seed(seed, &gen::reference_arch()).benchmark());
    }
    out
}

/// `b` linked with its typical input over `map` and `assignment`.
fn link(b: &Benchmark, map: &MemoryMap, assignment: &SpmAssignment) -> LinkedProgram {
    b.link_with_input(&b.compile().unwrap(), map, assignment, &b.typical_input())
        .unwrap()
}

/// The scratchpad capacities of the knapsack-allocated region rows.
const SPM_SIZES: [u32; 2] = [256, 1024];

/// The region-timing analyses of `b`: the no-scratchpad link under
/// Table-1 and DRAM main memory, then the energy-knapsack links of
/// [`SPM_SIZES`] (allocated from the baseline profile, as the pipeline
/// does) under Table-1.
fn region_analyses(b: &Benchmark, no_spm: &LinkedProgram) -> Vec<(String, WcetResult)> {
    let run = |linked: &LinkedProgram, config: &WcetConfig| {
        analyze(&linked.exe, config, &linked.annotations)
            .unwrap_or_else(|e| panic!("{} region: {e}", b.name))
    };
    let mut out = vec![
        (
            "spm0".to_string(),
            run(no_spm, &WcetConfig::region_timing()),
        ),
        (
            "spm0-dram10".to_string(),
            run(
                no_spm,
                &WcetConfig::region_timing_with(MainMemoryTiming::dram(10)),
            ),
        ),
    ];
    let pipeline = Pipeline::new(b).unwrap();
    for size in SPM_SIZES {
        let alloc = knapsack::allocate(
            pipeline.module(),
            pipeline.baseline_profile(),
            size,
            &EnergyModel::default(),
        );
        let linked = link(b, &MemoryMap::with_spm(size), &alloc.assignment);
        out.push((
            format!("spm{size}-knapsack"),
            run(&linked, &WcetConfig::region_timing()),
        ));
    }
    out
}

/// Unified and instruction-only caches in four shapes (direct-mapped;
/// 2-way LRU; 4-way round-robin; 2-way random with 32-byte lines and a
/// 3-cycle hit) at every size, then the data-only caches.
fn geometries() -> Vec<(String, CacheConfig)> {
    let mut out = Vec::new();
    for (scope, base) in [
        ("u", CacheConfig::unified as fn(u32) -> CacheConfig),
        ("i", CacheConfig::instr_only),
    ] {
        for size in SIZES {
            let dm = base(size);
            let shapes = [
                ("dm", dm.clone()),
                (
                    "lru2",
                    CacheConfig {
                        assoc: 2,
                        ..dm.clone()
                    },
                ),
                (
                    "rr4",
                    CacheConfig {
                        assoc: 4,
                        replacement: Replacement::RoundRobin,
                        ..dm.clone()
                    },
                ),
                (
                    "rnd2-l32-h3",
                    CacheConfig {
                        assoc: 2,
                        line: 32,
                        hit_latency: 3,
                        replacement: Replacement::Random { seed: 7 },
                        ..dm
                    },
                ),
            ];
            for (shape, c) in shapes {
                out.push((format!("{scope}{size}-{shape}"), c));
            }
        }
    }
    for size in SIZES {
        out.push((format!("d{size}-dm"), CacheConfig::data_only(size)));
    }
    out
}

/// FNV-1a over every classification set, each prefixed by its index.
fn digest(c: &Classification) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (i, set) in [
        &c.fetch_always_hit,
        &c.data_always_hit,
        &c.fetch_l1_always_miss,
        &c.data_l1_always_miss,
        &c.fetch_l2_always_hit,
        &c.data_l2_always_hit,
    ]
    .into_iter()
    .enumerate()
    {
        eat(0xffff_0000 | i as u32);
        set.iter().copied().for_each(&mut eat);
    }
    h
}

/// One golden row: `(wcet_cycles, ClassifyStats array, digest)`.
type Row = (u64, [u64; 10], u64);

fn row(r: &WcetResult) -> Row {
    (
        r.wcet_cycles,
        r.total_classify().to_array(),
        digest(&r.classification),
    )
}

fn render(key: &(String, String, String), (wcet, stats, dig): &Row) -> String {
    let stats: Vec<String> = stats.iter().map(u64::to_string).collect();
    format!(
        "{}\t{}\t{}\t{wcet}\t{}\t{dig:016x}",
        key.0,
        key.1,
        key.2,
        stats.join(",")
    )
}

fn parse(line: &str) -> ((String, String, String), Row) {
    let f: Vec<&str> = line.split('\t').collect();
    assert_eq!(f.len(), 6, "malformed golden line: {line}");
    let stats: Vec<u64> = f[4].split(',').map(|s| s.parse().unwrap()).collect();
    (
        (f[0].into(), f[1].into(), f[2].into()),
        (
            f[3].parse().unwrap(),
            stats.try_into().expect("ten ClassifyStats fields"),
            u64::from_str_radix(f[5], 16).unwrap(),
        ),
    )
}

/// Analyzes every program's region rows and every program × geometry ×
/// variant.
fn measure() -> BTreeMap<(String, String, String), Row> {
    let geometries = geometries();
    let mut out = BTreeMap::new();
    for b in programs() {
        let name = b.name.to_string();
        let linked = link(&b, &MemoryMap::no_spm(), &SpmAssignment::none());
        for (label, r) in region_analyses(&b, &linked) {
            out.insert((name.clone(), label, "region".into()), row(&r));
        }
        for (label, cache) in &geometries {
            for (variant, config) in [
                ("must", WcetConfig::with_cache(cache.clone())),
                ("pers", WcetConfig::with_cache_persistence(cache.clone())),
            ] {
                let r = analyze(&linked.exe, &config, &linked.annotations)
                    .unwrap_or_else(|e| panic!("{name} {label} {variant}: {e}"));
                out.insert((name.clone(), label.clone(), variant.into()), row(&r));
            }
        }
    }
    out
}

#[test]
fn paper_mode_matches_golden() {
    let measured = measure();
    if std::env::var_os("SPMLAB_BLESS_PAPER_MODE").is_some() {
        let mut text = String::from(
            "# program\tgeometry\tvariant\twcet_cycles\tclassify_stats\tclassification_fnv\n",
        );
        for (k, r) in &measured {
            text.push_str(&render(k, r));
            text.push('\n');
        }
        std::fs::write(golden_path(), text).unwrap();
        return;
    }
    let text = std::fs::read_to_string(golden_path()).expect("paper_mode_golden.tsv");
    let golden: BTreeMap<_, _> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(parse)
        .collect();
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        measured.keys().collect::<Vec<_>>(),
        "the golden covers a different program × geometry × variant set"
    );
    let mut failures = Vec::new();
    for (key, got) in &measured {
        let pinned = &golden[key];
        if key.2 != "pers" {
            if got != pinned {
                failures.push(format!(
                    "drift:\n  pinned {}\n  got    {}",
                    render(key, pinned),
                    render(key, got)
                ));
            }
            continue;
        }
        let must = measured[&(key.0.clone(), key.1.clone(), "must".into())].0;
        if got.0 > pinned.0 || got.0 > must {
            failures.push(format!(
                "{} {}: +persistence {} looser than pinned {} or MUST-only {must}",
                key.0, key.1, got.0, pinned.0
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} rows fail:\n{}",
        failures.len(),
        measured.len(),
        failures.join("\n")
    );
}
