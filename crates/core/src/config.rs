//! Experiment constants and the spec axes of the standard experiments.
//!
//! Every sweep in the workspace is an enumeration of [`MemArchSpec`]
//! values — the axis builders here are the single place the standard
//! experiment points are defined.

use spmlab_isa::archspec::{MemArchSpec, SpmAllocation};
use spmlab_isa::cachecfg::{CacheConfig, Replacement};
use spmlab_isa::hierarchy::{MainMemoryTiming, MemHierarchyConfig, StoreBuffer, L1};

/// The paper's capacity sweep: "scratchpad sizes from 64 bytes to 8k" and
/// "cache capacities from 64 bytes to 8k".
pub const PAPER_SIZES: [u32; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// A shorter sweep for debug-mode tests.
pub const QUICK_SIZES: [u32; 4] = [64, 256, 1024, 4096];

/// DRAM-style burst setup latency used by the hierarchy sweep's slow-main
/// points (cycles before the first beat).
pub const DRAM_LATENCY: u64 = 10;

/// The scratchpad axis (Figure 3a): knapsack-filled scratchpads over
/// Table-1 main memory.
pub fn spm_axis(sizes: &[u32]) -> Vec<MemArchSpec> {
    sizes.iter().map(|&s| MemArchSpec::spm(s)).collect()
}

/// The cache axis (Figure 3b): unified direct-mapped caches.
pub fn cache_axis(sizes: &[u32]) -> Vec<MemArchSpec> {
    sizes
        .iter()
        .map(|&s| MemArchSpec::single_cache(CacheConfig::unified(s)))
        .collect()
}

/// Figures 3, 5 and 6 as one axis: [`spm_axis`] (panel a) followed by
/// [`cache_axis`] (panel b).
pub fn figure3_axis(sizes: &[u32]) -> Vec<MemArchSpec> {
    let mut axis = spm_axis(sizes);
    axis.extend(cache_axis(sizes));
    axis
}

/// The persistence ablation: [`cache_axis`] analysed MUST-only, then the
/// same caches with the persistence (first-miss) analysis.
pub fn persistence_axis(sizes: &[u32]) -> Vec<MemArchSpec> {
    let must = cache_axis(sizes);
    let pers: Vec<MemArchSpec> = must
        .iter()
        .map(|spec| MemArchSpec {
            persistence: true,
            ..spec.clone()
        })
        .collect();
    [must, pers].concat()
}

/// The instruction-cache ablation: [`cache_axis`], then instruction-only
/// caches of the same sizes.
pub fn icache_axis(sizes: &[u32]) -> Vec<MemArchSpec> {
    let mut axis = cache_axis(sizes);
    axis.extend(
        sizes
            .iter()
            .map(|&s| MemArchSpec::single_cache(CacheConfig::instr_only(s))),
    );
    axis
}

/// The associativity ablation: one unified `size`-byte cache per named
/// associativity and replacement policy.
pub fn assoc_axis(size: u32) -> Vec<(&'static str, MemArchSpec)> {
    [
        ("direct-mapped", CacheConfig::unified(size)),
        (
            "2-way LRU",
            CacheConfig::set_assoc(size, 2, Replacement::Lru),
        ),
        (
            "4-way LRU",
            CacheConfig::set_assoc(size, 4, Replacement::Lru),
        ),
        (
            "4-way random",
            CacheConfig::set_assoc(size, 4, Replacement::Random { seed: 7 }),
        ),
        (
            "4-way round-robin",
            CacheConfig::set_assoc(size, 4, Replacement::RoundRobin),
        ),
    ]
    .into_iter()
    .map(|(name, cfg)| (name, MemArchSpec::single_cache(cfg)))
    .collect()
}

/// The hierarchy axis of the experiment: single-level L1s (unified and
/// split I/D), two-level configurations at two L2 capacities, and the same
/// two-level machine over two main-memory timings (Table-1 SRAM-style and
/// DRAM-style with burst setup latency). SPM points ride alongside as
/// specs of their own — see [`hierarchy_figure_axis`].
pub fn hierarchy_axis(l1_size: u32) -> Vec<MemHierarchyConfig> {
    let split = || MemHierarchyConfig::split_l1(l1_size / 2, l1_size / 2);
    vec![
        MemHierarchyConfig::l1_only(CacheConfig::unified(l1_size)),
        split(),
        split().with_l2(CacheConfig::l2(4 * l1_size)),
        split().with_l2(CacheConfig::l2(16 * l1_size)),
        split()
            .with_l2(CacheConfig::l2(4 * l1_size))
            .with_main(MainMemoryTiming::dram(DRAM_LATENCY)),
        MemHierarchyConfig::l1_only(CacheConfig::instr_only(l1_size))
            .with_l2(CacheConfig::l2(16 * l1_size)),
    ]
}

/// [`hierarchy_axis`] as a spec axis.
pub fn hierarchy_spec_axis(l1_size: u32) -> Vec<MemArchSpec> {
    hierarchy_axis(l1_size)
        .iter()
        .map(MemArchSpec::from_hierarchy)
        .collect()
}

/// The hierarchy figure's axis: an `l1_size`-byte scratchpad under both
/// main-memory timings, then [`hierarchy_spec_axis`].
pub fn hierarchy_figure_axis(l1_size: u32) -> Vec<MemArchSpec> {
    let spm = MemArchSpec::spm(l1_size);
    let dram = MemArchSpec {
        main: MainMemoryTiming::dram(DRAM_LATENCY),
        ..spm.clone()
    };
    [vec![spm, dram], hierarchy_spec_axis(l1_size)].concat()
}

/// The multi-level machines of the SPM×hierarchy axis: a split L1 backed
/// by a unified L2, over both main-memory timings.
pub fn hierarchy_spm_machines(l1_size: u32) -> Vec<MemHierarchyConfig> {
    let split = || MemHierarchyConfig::split_l1(l1_size / 2, l1_size / 2);
    vec![
        split().with_l2(CacheConfig::l2(4 * l1_size)),
        split()
            .with_l2(CacheConfig::l2(4 * l1_size))
            .with_main(MainMemoryTiming::dram(DRAM_LATENCY)),
    ]
}

/// The SPM×hierarchy axis unlocked by the composable spec: for every
/// scratchpad capacity and multi-level machine, a pair of specs filling
/// the scratchpad with (a) the seed allocator's flat region-timing
/// objective and (b) the hierarchy-aware objective that optimises the
/// multi-level critical path. Pairs are adjacent: `[region, aware,
/// region, aware, …]`.
pub fn hierarchy_spm_axis(spm_sizes: &[u32], machines: &[MemHierarchyConfig]) -> Vec<MemArchSpec> {
    let mut specs = Vec::with_capacity(spm_sizes.len() * machines.len() * 2);
    for &size in spm_sizes {
        for machine in machines {
            for alloc in [SpmAllocation::WcetRegion, SpmAllocation::WcetAware] {
                specs.push(MemArchSpec {
                    spm: Some(spmlab_isa::archspec::SpmSpec { size, alloc }),
                    ..MemArchSpec::from_hierarchy(machine)
                });
            }
        }
    }
    specs
}

/// Store-buffer parameters of the write-policy axis: 4 entries, 6-cycle
/// drain (a word write to Table-1 main takes 4 cycles; the drain models
/// the buffered write plus arbitration).
pub const STORE_BUFFER: StoreBuffer = StoreBuffer::new(4, 6);

/// The write-policy axis: for each machine shape of the standard
/// hierarchy experiment, the paper's write-through/no-allocate
/// configuration next to its write-back/write-allocate twin (and, for
/// the uncached shape, a store-buffered twin). Pairs are adjacent:
/// `[write-through, write-back, …]` — the `write-policy` grid figure
/// prints one row per pair, and its verify claim checks every point.
pub fn write_policy_axis(l1_size: u32) -> Vec<MemArchSpec> {
    let half = l1_size / 2;
    let split_wt = || MemHierarchyConfig::split_l1(half, half);
    let split_wb = || MemHierarchyConfig {
        l1: L1::Split {
            i: Some(CacheConfig::instr_only(half)),
            d: Some(CacheConfig::data_only(half).write_back()),
        },
        l2: None,
        main: MainMemoryTiming::table1(),
    };
    vec![
        // Bare split L1: WB data half vs the WT one.
        MemArchSpec::from_hierarchy(&split_wt()),
        MemArchSpec::from_hierarchy(&split_wb()),
        // Split L1 over a unified L2: all-WT vs WB at both levels.
        MemArchSpec::from_hierarchy(&split_wt().with_l2(CacheConfig::l2(4 * l1_size))),
        MemArchSpec::from_hierarchy(&split_wb().with_l2(CacheConfig::l2(4 * l1_size).write_back())),
        // WT L1 in front of a WB L2 (the L2 absorbs what the L1 forwards).
        MemArchSpec::from_hierarchy(&split_wt().with_l2(CacheConfig::l2(4 * l1_size))),
        MemArchSpec::from_hierarchy(&split_wt().with_l2(CacheConfig::l2(4 * l1_size).write_back())),
        // The paper's unified L1, both policies.
        MemArchSpec::single_cache(CacheConfig::unified(l1_size)),
        MemArchSpec::single_cache(CacheConfig::unified(l1_size).write_back()),
        // Uncached main memory without and with a store buffer.
        MemArchSpec::uncached(),
        MemArchSpec {
            main: MainMemoryTiming::table1().with_store_buffer(STORE_BUFFER),
            ..MemArchSpec::uncached()
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_are_valid_specs() {
        for spec in figure3_axis(&PAPER_SIZES)
            .into_iter()
            .chain(persistence_axis(&PAPER_SIZES))
            .chain(icache_axis(&PAPER_SIZES))
            .chain(assoc_axis(4096).into_iter().map(|(_, s)| s))
            .chain(hierarchy_figure_axis(1024))
            .chain(hierarchy_spm_axis(
                &[512, 1024],
                &hierarchy_spm_machines(1024),
            ))
            .chain(write_policy_axis(1024))
        {
            spec.validate().unwrap_or_else(|e| panic!("{e}: {spec:?}"));
        }
    }

    #[test]
    fn write_policy_axis_pairs_policies() {
        let specs = write_policy_axis(1024);
        assert_eq!(specs.len() % 2, 0);
        for pair in specs.chunks(2) {
            let (wt, wb) = (&pair[0], &pair[1]);
            assert!(
                !wt.hierarchy().write_policy_dependent(),
                "{}: left of a pair is the write-through reference",
                wt.label()
            );
            assert!(
                wb.hierarchy().write_policy_dependent(),
                "{}: right of a pair carries write-back state or a store buffer",
                wb.label()
            );
        }
    }

    #[test]
    fn hierarchy_spm_axis_pairs_objectives() {
        use spmlab_isa::archspec::SpmAllocation;
        let specs = hierarchy_spm_axis(&[1024], &hierarchy_spm_machines(1024));
        assert_eq!(specs.len(), 4, "1 size × 2 machines × 2 objectives");
        for pair in specs.chunks(2) {
            let a = pair[0].spm.as_ref().unwrap();
            let b = pair[1].spm.as_ref().unwrap();
            assert_eq!(a.alloc, SpmAllocation::WcetRegion);
            assert_eq!(b.alloc, SpmAllocation::WcetAware);
            assert_eq!(a.size, b.size);
            assert_eq!(pair[0].hierarchy(), pair[1].hierarchy());
        }
    }
}
