//! Shared by the allocator tests: the `spm-alloc` programs, capacities
//! and objectives, and a reference WCET-aware greedy that links and
//! analyses every trial afresh, as the allocator did before it kept a
//! trial memo.

#![allow(dead_code)]

use spmlab::MemArchSpec;
use spmlab_alloc::wcet_aware::{WcetAllocError, WcetAllocation};
use spmlab_cc::{link, ObjModule, SpmAssignment};
use spmlab_isa::archspec::SpmAllocation;
use spmlab_isa::mem::MemoryMap;
use spmlab_wcet::{analyze, WcetConfig};
use spmlab_workloads::{gen, ADPCM, MULTISORT};

/// The scratchpad capacities of the `spm-alloc` grid.
pub const CAPACITIES: [u32; 5] = [128, 256, 512, 1024, 2048];

/// The `spm-alloc` programs, compiled: ADPCM, multisort and the four
/// generated programs of the reference architecture (seeds 0..=3).
pub fn programs() -> Vec<(String, ObjModule)> {
    let arch = gen::reference_arch();
    [ADPCM.clone(), MULTISORT.clone()]
        .into_iter()
        .chain((0..=3).map(|k| gen::generate_for_seed(k, &arch).benchmark()))
        .map(|b| (b.name.to_string(), b.compile().expect("compiles")))
        .collect()
}

/// The analyzer configuration the pipeline routes a canonical scratchpad
/// spec to: the multi-level analysis of its hierarchy, which is region
/// timing over its main memory when it has no cache level.
pub fn routed(spec: &MemArchSpec) -> WcetConfig {
    let canon = spec.canonical();
    assert!(canon.spm.is_some(), "a scratchpad spec");
    WcetConfig::with_hierarchy(canon.hierarchy())
}

/// The four objectives the `spm-alloc` grid allocates for at each
/// capacity: region timing at main latency 0 and 10, and a unified 1 KiB
/// L1 at main latency 0 and 10. The first is the region-timing greedy's
/// own (a `wcet` point over plain region timing canonicalises to
/// `wcet-region`); the other three run the hierarchy-aware portfolio.
pub fn objectives() -> Vec<WcetConfig> {
    let grid = spmlab::dse::GridSpec {
        spm_sizes: vec![CAPACITIES[0]],
        spm_allocs: vec![SpmAllocation::WcetAware],
        l1_sizes: vec![0, 1024],
        main_latencies: vec![0, 10],
        ..spmlab::dse::GridSpec::default()
    };
    let axis = grid.axis().unwrap().0;
    assert_eq!(
        axis[0].spm.as_ref().unwrap().alloc,
        SpmAllocation::WcetRegion
    );
    let objectives: Vec<_> = axis.iter().map(routed).collect();
    assert_eq!(objectives.len(), 4);
    assert_eq!(objectives[0], WcetConfig::region_timing());
    objectives
}

/// One link + analyze of `assignment` for a `capacity`-byte scratchpad,
/// logged as `(capacity, assignment)` when it yields a bound.
fn trial(
    module: &ObjModule,
    capacity: u32,
    assignment: &SpmAssignment,
    config: &WcetConfig,
    log: &mut Vec<(u32, SpmAssignment)>,
) -> Result<u64, WcetAllocError> {
    let linked =
        link(module, &MemoryMap::with_spm(capacity), assignment).map_err(WcetAllocError::Link)?;
    let res = analyze(&linked.exe, config, &linked.annotations).map_err(WcetAllocError::Wcet)?;
    log.push((capacity, assignment.clone()));
    Ok(res.wcet_cycles)
}

/// The greedy of `wcet_aware::allocate_with`, one fresh trial per
/// candidate (capacity 0 is the no-scratchpad baseline).
pub fn reference_greedy(
    module: &ObjModule,
    capacity: u32,
    config: &WcetConfig,
    log: &mut Vec<(u32, SpmAssignment)>,
) -> Result<WcetAllocation, WcetAllocError> {
    let baseline_wcet = trial(module, 0, &SpmAssignment::none(), config, log)?;
    let mut assignment = SpmAssignment::none();
    let mut current = trial(module, capacity, &assignment, config, log)?;
    let mut remaining = module.memory_objects();
    let mut used = 0u32;
    let mut steps = Vec::new();
    loop {
        let mut best: Option<(usize, u64, f64)> = None;
        for (i, (name, size)) in remaining.iter().enumerate() {
            let aligned = (size.max(&1) + 3) & !3;
            if used + aligned > capacity {
                continue;
            }
            let mut candidate = assignment.clone();
            candidate.insert(name.clone());
            let w = match trial(module, capacity, &candidate, config, log) {
                Ok(w) => w,
                Err(WcetAllocError::Link(_)) => continue,
                Err(e) => return Err(e),
            };
            if w < current {
                let gain_per_byte = (current - w) as f64 / aligned as f64;
                if best.is_none_or(|(_, _, g)| gain_per_byte > g) {
                    best = Some((i, w, gain_per_byte));
                }
            }
        }
        let Some((i, w, _)) = best else { break };
        let (name, size) = remaining.remove(i);
        used += (size.max(1) + 3) & !3;
        assignment.insert(name.clone());
        current = w;
        steps.push((name, w));
    }
    Ok(WcetAllocation {
        assignment,
        baseline_wcet,
        final_wcet: current,
        steps,
    })
}

/// The portfolio of `wcet_aware::allocate_hierarchy_aware` over
/// [`reference_greedy`], given the region-timing greedy's assignment.
pub fn reference_hierarchy_aware(
    module: &ObjModule,
    capacity: u32,
    config: &WcetConfig,
    region: &SpmAssignment,
    log: &mut Vec<(u32, SpmAssignment)>,
) -> Result<WcetAllocation, WcetAllocError> {
    let aware = reference_greedy(module, capacity, config, log)?;
    if *region == aware.assignment {
        return Ok(aware);
    }
    let region_under_config = trial(module, capacity, region, config, log)?;
    if region_under_config < aware.final_wcet {
        Ok(WcetAllocation {
            assignment: region.clone(),
            baseline_wcet: aware.baseline_wcet,
            final_wcet: region_under_config,
            steps: Vec::new(),
        })
    } else {
        Ok(aware)
    }
}
